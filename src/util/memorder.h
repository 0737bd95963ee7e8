// Memory-order selection for the primitives (DESIGN.md §10 companion).
//
// The seed implementation used seq_cst on every shared access. The paper's
// Fig. 2/Fig. 4 proofs only need specific happens-before edges, so the
// hot-path accesses in llxscx/ and ds/ are annotated with the weakest
// order that preserves the edge — each use site carries a one-line comment
// naming that edge. Building with -DLLXSCX_RELAXED_ORDERS=0 (CMake option,
// ON by default) collapses every constant below back to seq_cst, which is
// the differential-testing configuration: any divergence between the two
// builds under TSAN or the oracle stresses indicts a relaxation, not the
// algorithm.
//
// Accesses NOT routed through these constants are deliberate:
//   - reclaim/epoch.h publishes a reservation with a release store and
//     then one seq_cst fence, and fences again in retire_raw before it
//     stamps a record: the StoreLoad edge against the scanner's
//     reservation read that acquire/release cannot express (DESIGN.md §2
//     gives the argument; no weaker order works there),
//   - node constructors store their fields relaxed (published wholesale by
//     the committing SCX's release update-CAS),
//   - baselines/ stay seq_cst (they are step-count comparators, not
//     fence-tuning subjects).
#pragma once

#include <atomic>

#ifndef LLXSCX_RELAXED_ORDERS
#define LLXSCX_RELAXED_ORDERS 1
#endif

namespace llxscx {

inline constexpr bool kRelaxedOrders = LLXSCX_RELAXED_ORDERS != 0;

namespace mo {

inline constexpr std::memory_order relaxed =
    kRelaxedOrders ? std::memory_order_relaxed : std::memory_order_seq_cst;
inline constexpr std::memory_order acquire =
    kRelaxedOrders ? std::memory_order_acquire : std::memory_order_seq_cst;
inline constexpr std::memory_order release =
    kRelaxedOrders ? std::memory_order_release : std::memory_order_seq_cst;
inline constexpr std::memory_order acq_rel =
    kRelaxedOrders ? std::memory_order_acq_rel : std::memory_order_seq_cst;

}  // namespace mo

}  // namespace llxscx
