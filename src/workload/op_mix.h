// Operation-mix specs (DESIGN.md §13) — WHAT a workload's operations do,
// as read/insert/erase/scan percentages over the container contract (§9 +
// the §15 range/scan verbs): read → contains(), insert → insert(), erase
// → erase(), scan → container_scan() (a bounded ordered window on ordered
// engines, a bounded unordered sample elsewhere). YCSB's standard mixes
// map onto the KV surface the obvious way (YCSB "update" is an upsert,
// which the §9 contract spells insert):
//
//   ycsb-a   50/50/0/0   update-heavy     (YCSB workload A)
//   ycsb-b   95/5/0/0    read-mostly      (YCSB workload B)
//   ycsb-c   100/0/0/0   read-only        (YCSB workload C)
//   ycsb-e   0/5/0/95    scan-heavy       (YCSB workload E: short ranges)
//
// plus the two phase mixes the grow → steady → churn regimes use and a
// parser for custom "R:I:E" / "R:I:E:S" strings, so ad-hoc runs can dial
// any ratio without recompiling.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>

#include "util/random.h"

namespace llxscx::workload {

enum class OpType : unsigned { kRead = 0, kInsert = 1, kErase = 2, kScan = 3 };
inline constexpr unsigned kNumOpTypes = 4;

inline const char* op_name(OpType t) {
  switch (t) {
    case OpType::kRead: return "read";
    case OpType::kInsert: return "insert";
    case OpType::kErase: return "erase";
    case OpType::kScan: return "scan";
  }
  return "?";
}

struct OpMix {
  const char* name = "?";
  unsigned read_pct = 0;
  unsigned insert_pct = 0;
  unsigned erase_pct = 0;
  unsigned scan_pct = 0;  // the four always sum to 100; erase fills the
                          // remainder when scan_pct is left defaulted, so
                          // every pre-scan "R:I:E" mix reads unchanged

  // One bounded draw decides the op — same dice-roll shape the legacy
  // benches hand-rolled, now behind one call.
  OpType pick(Xoshiro256& rng) const {
    const auto dice = static_cast<unsigned>(rng.below(100));
    if (dice < read_pct) return OpType::kRead;
    if (dice < read_pct + insert_pct) return OpType::kInsert;
    if (dice < read_pct + insert_pct + erase_pct) return OpType::kErase;
    return OpType::kScan;
  }

  unsigned pct_of(OpType t) const {
    switch (t) {
      case OpType::kRead: return read_pct;
      case OpType::kInsert: return insert_pct;
      case OpType::kErase: return erase_pct;
      case OpType::kScan: return scan_pct;
    }
    return 0;
  }
};

inline constexpr OpMix kYcsbA{"ycsb-a", 50, 50, 0};
inline constexpr OpMix kYcsbB{"ycsb-b", 95, 5, 0};
inline constexpr OpMix kYcsbC{"ycsb-c", 100, 0, 0};
// YCSB workload E: short ordered scans dominate, trickle of inserts.
inline constexpr OpMix kYcsbE{"ycsb-e", 0, 5, 0, 95};
// Regime phase mixes (driver.h): grow fills the structure, churn turns it
// over with balanced insert/erase pressure at a steady size.
inline constexpr OpMix kGrowMix{"grow", 10, 90, 0};
inline constexpr OpMix kChurnMix{"churn", 10, 45, 45};

// "ycsb-a" | "ycsb-b" | "ycsb-c" | "ycsb-e" | "R:I:E" | "R:I:E:S" (the
// integers, each at most 100, summing to 100). Returns nullopt on anything
// else; %u also reads "-1" as UINT_MAX, so a field above 100 is rejected
// before its sum can wrap around to 100. The parsed custom mix keeps the
// input shape as its name via the caller-provided scratch buffer (name_buf
// must outlive the mix; pass a caller-owned buffer).
inline std::optional<OpMix> parse_op_mix(const char* s, char* name_buf,
                                         std::size_t name_buf_len) {
  if (std::strcmp(s, "ycsb-a") == 0) return kYcsbA;
  if (std::strcmp(s, "ycsb-b") == 0) return kYcsbB;
  if (std::strcmp(s, "ycsb-c") == 0) return kYcsbC;
  if (std::strcmp(s, "ycsb-e") == 0) return kYcsbE;
  unsigned r = 0, i = 0, e = 0, sc = 0;
  int consumed = 0;
  if (std::sscanf(s, "%u:%u:%u:%u%n", &r, &i, &e, &sc, &consumed) == 4 &&
      s[consumed] == '\0') {
    if (r > 100 || i > 100 || e > 100 || sc > 100 || r + i + e + sc != 100) {
      return std::nullopt;
    }
    std::snprintf(name_buf, name_buf_len, "%u:%u:%u:%u", r, i, e, sc);
    return OpMix{name_buf, r, i, e, sc};
  }
  consumed = 0;
  if (std::sscanf(s, "%u:%u:%u%n", &r, &i, &e, &consumed) != 3 ||
      s[consumed] != '\0' || r > 100 || i > 100 || e > 100 ||
      r + i + e != 100) {
    return std::nullopt;
  }
  std::snprintf(name_buf, name_buf_len, "%u:%u:%u", r, i, e);
  return OpMix{name_buf, r, i, e};
}

// "--batch=N" operand: a positive dispatch width (1 = scalar ops, N > 1 =
// container_apply_batch over N-op batches). Bounded so a typo can't ask
// the driver for a gigabyte of scratch. Returns nullopt on anything else.
inline std::optional<int> parse_batch(const char* s) {
  int b = 0;
  int consumed = 0;
  if (std::sscanf(s, "%d%n", &b, &consumed) != 1 || s[consumed] != '\0' ||
      b < 1 || b > 4096) {
    return std::nullopt;
  }
  return b;
}

}  // namespace llxscx::workload
