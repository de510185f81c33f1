// Checkable values and the result checker.
//
// Every value the benchmark writes is self-describing:
//
//   [0, 16)    the key it belongs to ("user%012llu")
//   [16, 24)   version (fixed64 LE); version 1 is the loaded value
//   [24, 32)   checksum (fixed64 LE) over every other byte of the value
//   [32, end)  body: a seeded random half repeated once, so the value
//              compresses roughly 2:1 under a byte-LZ codec
//
// KeyStates tracks, per key, which versions the benchmark issued and the
// newest version acknowledged by a put that overlapped no other put to the
// same key (the "floor"). A read must return a well-formed value of the
// right key whose version lies in [floor at read start, issued at read
// end]. Concurrent puts to one key may land in either order, so their
// acknowledgments do not raise the floor.
#ifndef PERFBENCH_CHECKER_H_
#define PERFBENCH_CHECKER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

constexpr size_t kKeySize = 16;
constexpr size_t kValueHeaderSize = 32;

std::string MakeKey(uint64_t index);

/// Fills *out with the value for (key index, version) under run seed.
void EncodeValue(uint64_t seed, uint64_t key_index, uint64_t version,
                 size_t value_size, std::string* out);

/// Checks that `value` is intact and belongs to key_index. On success sets
/// *version and returns ""; otherwise returns what is wrong.
std::string DecodeValue(const std::string& value, uint64_t key_index,
                        size_t value_size, uint64_t* version);

class KeyStates {
 public:
  /// All keys start as loaded with version 1.
  explicit KeyStates(uint64_t num_keys);

  struct PutTicket {
    uint64_t key = 0;
    uint64_t version = 0;
    bool clean_start = false;
  };
  /// Reserve the next version of key; call before issuing the put.
  PutTicket BeginPut(uint64_t key);
  /// Call after the put returned (acknowledged = returned OK).
  void EndPut(const PutTicket& t, bool acknowledged);

  uint64_t Floor(uint64_t key) const {
    return floor_[key].load(std::memory_order_acquire);
  }
  uint64_t Issued(uint64_t key) const {
    return word_[key].load(std::memory_order_acquire) >> kActiveBits;
  }
  uint64_t num_keys() const { return num_keys_; }

 private:
  // One word per key: versions issued (high bits) and puts in flight (low
  // bits), updated together so overlap detection sees one order.
  static constexpr int kActiveBits = 20;
  static constexpr uint64_t kActiveMask = (uint64_t{1} << kActiveBits) - 1;

  uint64_t num_keys_;
  std::unique_ptr<std::atomic<uint64_t>[]> word_;
  std::unique_ptr<std::atomic<uint64_t>[]> floor_;
};

class Checker {
 public:
  Checker(uint64_t seed, uint64_t num_keys, size_t value_size, int scan_length)
      : seed_(seed),
        num_keys_(num_keys),
        value_size_(value_size),
        scan_length_(scan_length) {}

  /// A get of key_index that began when the key's floor was floor_before
  /// returned `value`. Returns "" when correct, else the defect.
  std::string CheckGet(const KeyStates& states, uint64_t key_index,
                       uint64_t floor_before, const std::string& value) const;

  /// A scan from start_index (floors_before[i] = floor of start_index + i
  /// when the scan began). Every key exists, so the result must be exactly
  /// the next min(scan_length, num_keys - start_index) keys, ascending and
  /// unique, each holding a valid version.
  std::string CheckScan(
      const KeyStates& states, uint64_t start_index,
      const std::vector<uint64_t>& floors_before,
      const std::vector<std::pair<std::string, std::string>>& records) const;

  uint64_t seed() const { return seed_; }
  size_t value_size() const { return value_size_; }
  int scan_length() const { return scan_length_; }

 private:
  uint64_t seed_;
  uint64_t num_keys_;
  size_t value_size_;
  int scan_length_;
};

/// Shows the checker catches a flipped byte, a wrong key and a missing
/// key (plus a stale version and an unordered scan). Returns "" on
/// success, else which case slipped through.
std::string CheckerSelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_CHECKER_H_
