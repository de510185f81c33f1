// The traced run: per-layer numbers for one workload.
#ifndef PERFBENCH_TRACED_H_
#define PERFBENCH_TRACED_H_

#include <string>

#include "driver.h"

namespace perfbench {

/// Set up once, run an untraced client window (counter deltas, host
/// cost), then a traced window that issues operations at the layer entry
/// points (spans, sampled gauges), then single-threaded probes of the
/// lower layers on the quiesced cluster. Spans are written to
/// trace_dir/spans-<workload>.csv at the end. Returns the exit
/// status.
int RunTraced(Harness* h, double seconds, const std::string& trace_dir);

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_H_
