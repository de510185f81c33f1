#include "checker.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>

namespace perfbench {

namespace {

uint64_t SplitMix(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void PutFixed64(char* dst, uint64_t v) {
  for (int i = 0; i < 8; i++) {
    dst[i] = static_cast<char>(v >> (8 * i));
  }
}

uint64_t GetFixed64(const char* src) {
  uint64_t v = 0;
  for (int i = 0; i < 8; i++) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(src[i])) << (8 * i);
  }
  return v;
}

uint64_t Mix(uint64_t h, uint64_t word) {
  h ^= word * 0x9fb21c651e98df25ULL;
  h = (h << 27) | (h >> 37);
  return h * 0xc2b2ae3d27d4eb4fULL + 0x165667b19e3779f9ULL;
}

/// Checksum over the value with its checksum field skipped.
uint64_t ValueChecksum(const char* v, size_t n) {
  uint64_t h = 0x27d4eb2f165667c5ULL ^ n;
  for (size_t i = 0; i + 8 <= n; i += 8) {
    if (i == 24) {
      continue;
    }
    uint64_t w;
    memcpy(&w, v + i, 8);
    h = Mix(h, w);
  }
  for (size_t i = n & ~size_t{7}; i < n; i++) {
    h = Mix(h, static_cast<unsigned char>(v[i]));
  }
  return h;
}

}  // namespace

std::string MakeKey(uint64_t index) {
  char buf[32];
  snprintf(buf, sizeof(buf), "user%012" PRIu64, index);
  return std::string(buf, kKeySize);
}

void EncodeValue(uint64_t seed, uint64_t key_index, uint64_t version,
                 size_t value_size, std::string* out) {
  out->resize(value_size);
  char* v = &(*out)[0];
  std::string key = MakeKey(key_index);
  memcpy(v, key.data(), kKeySize);
  PutFixed64(v + 16, version);
  size_t body = value_size - kValueHeaderSize;
  size_t half = (body + 1) / 2;
  uint64_t state = seed ^ (key_index * 0xd6e8feb86659fd93ULL) ^
                   (version * 0xa0761d6478bd642fULL);
  char* b = v + kValueHeaderSize;
  for (size_t i = 0; i < half; i += 8) {
    uint64_t r = SplitMix(&state);
    memcpy(b + i, &r, std::min<size_t>(8, half - i));
  }
  memcpy(b + half, b, body - half);
  PutFixed64(v + 24, ValueChecksum(v, value_size));
}

std::string DecodeValue(const std::string& value, uint64_t key_index,
                        size_t value_size, uint64_t* version) {
  if (value.size() != value_size) {
    return "value length " + std::to_string(value.size());
  }
  if (GetFixed64(value.data() + 24) != ValueChecksum(value.data(), value_size)) {
    return "checksum mismatch";
  }
  if (value.compare(0, kKeySize, MakeKey(key_index)) != 0) {
    return "value belongs to " + value.substr(0, kKeySize);
  }
  *version = GetFixed64(value.data() + 16);
  return "";
}

KeyStates::KeyStates(uint64_t num_keys)
    : num_keys_(num_keys),
      word_(new std::atomic<uint64_t>[num_keys]),
      floor_(new std::atomic<uint64_t>[num_keys]) {
  for (uint64_t i = 0; i < num_keys; i++) {
    word_[i].store(uint64_t{1} << kActiveBits, std::memory_order_relaxed);
    floor_[i].store(1, std::memory_order_relaxed);
  }
}

KeyStates::PutTicket KeyStates::BeginPut(uint64_t key) {
  uint64_t old = word_[key].fetch_add((uint64_t{1} << kActiveBits) + 1,
                                      std::memory_order_acq_rel);
  PutTicket t;
  t.key = key;
  t.version = (old >> kActiveBits) + 1;
  t.clean_start = (old & kActiveMask) == 0;
  return t;
}

void KeyStates::EndPut(const PutTicket& t, bool acknowledged) {
  // Clean: nothing was in flight when this put began and nothing began
  // since, so no other put to the key can be ordered after it.
  uint64_t now = word_[t.key].load(std::memory_order_acquire);
  if (acknowledged && t.clean_start && (now >> kActiveBits) == t.version) {
    uint64_t cur = floor_[t.key].load(std::memory_order_relaxed);
    while (cur < t.version &&
           !floor_[t.key].compare_exchange_weak(cur, t.version,
                                                std::memory_order_acq_rel)) {
    }
  }
  word_[t.key].fetch_sub(1, std::memory_order_acq_rel);
}

std::string Checker::CheckGet(const KeyStates& states, uint64_t key_index,
                              uint64_t floor_before,
                              const std::string& value) const {
  uint64_t version = 0;
  std::string err = DecodeValue(value, key_index, value_size_, &version);
  if (!err.empty()) {
    return err;
  }
  uint64_t issued = states.Issued(key_index);
  if (version < floor_before || version > issued) {
    char buf[128];
    snprintf(buf, sizeof(buf),
             "version %" PRIu64 " outside [%" PRIu64 ", %" PRIu64 "]", version,
             floor_before, issued);
    return buf;
  }
  return "";
}

std::string Checker::CheckScan(
    const KeyStates& states, uint64_t start_index,
    const std::vector<uint64_t>& floors_before,
    const std::vector<std::pair<std::string, std::string>>& records) const {
  uint64_t expected = std::min<uint64_t>(scan_length_, num_keys_ - start_index);
  if (records.size() > expected) {
    return "scan returned " + std::to_string(records.size()) + " records, " +
           "at most " + std::to_string(expected) + " exist";
  }
  for (size_t i = 0; i < records.size(); i++) {
    const std::string& key = records[i].first;
    if (i == 0 && key < MakeKey(start_index)) {
      return "scan starts before its start key: " + key;
    }
    if (i > 0 && !(records[i - 1].first < key)) {
      return "scan not ascending/unique at " + key;
    }
    if (key != MakeKey(start_index + i)) {
      return "scan skipped to " + key + " (missing " +
             MakeKey(start_index + i) + ")";
    }
    std::string err =
        CheckGet(states, start_index + i, floors_before[i], records[i].second);
    if (!err.empty()) {
      return key + ": " + err;
    }
  }
  if (records.size() != expected) {
    return "scan returned " + std::to_string(records.size()) + " of " +
           std::to_string(expected) + " records";
  }
  return "";
}

std::string CheckerSelfTest() {
  const uint64_t kSeed = 7;
  const size_t kSize = 1024;
  KeyStates states(100);
  Checker checker(kSeed, 100, kSize, 10);
  std::string good;
  EncodeValue(kSeed, 42, 1, kSize, &good);
  if (!checker.CheckGet(states, 42, 1, good).empty()) {
    return "an intact value was rejected";
  }
  for (size_t pos : {size_t{3}, size_t{17}, size_t{40}, kSize - 1}) {
    std::string flipped = good;
    flipped[pos] ^= 0x10;
    if (checker.CheckGet(states, 42, 1, flipped).empty()) {
      return "a flipped byte at offset " + std::to_string(pos) + " passed";
    }
  }
  if (checker.CheckGet(states, 42, 1, std::string()).empty()) {
    return "a missing (empty) value passed";
  }
  std::string other;
  EncodeValue(kSeed, 43, 1, kSize, &other);
  if (checker.CheckGet(states, 42, 1, other).empty()) {
    return "another key's value passed";
  }
  // A put of version 2 that completed alone raises the floor: version 1
  // is then stale.
  KeyStates::PutTicket t = states.BeginPut(42);
  states.EndPut(t, true);
  if (states.Floor(42) != 2 || checker.CheckGet(states, 42, 2, good).empty()) {
    return "a stale version passed";
  }
  std::vector<std::pair<std::string, std::string>> scan;
  std::vector<uint64_t> floors(10, 1);
  for (uint64_t i = 50; i < 60; i++) {
    std::string v;
    EncodeValue(kSeed, i, 1, kSize, &v);
    scan.emplace_back(MakeKey(i), v);
  }
  if (!checker.CheckScan(states, 50, floors, scan).empty()) {
    return "an intact scan was rejected";
  }
  auto missing = scan;
  missing.erase(missing.begin() + 4);
  if (checker.CheckScan(states, 50, floors, missing).empty()) {
    return "a scan missing a key passed";
  }
  auto truncated = scan;
  truncated.pop_back();
  if (checker.CheckScan(states, 50, floors, truncated).empty()) {
    return "a short scan passed";
  }
  auto swapped = scan;
  std::swap(swapped[2], swapped[3]);
  if (checker.CheckScan(states, 50, floors, swapped).empty()) {
    return "an unordered scan passed";
  }
  auto wrong_key = scan;
  wrong_key[5].second = scan[6].second;
  if (checker.CheckScan(states, 50, floors, wrong_key).empty()) {
    return "a scan record holding another key's value passed";
  }
  return "";
}

}  // namespace perfbench
