/**
 * @file
 * The xmig-audit contract layer: graded invariant checking.
 *
 * Three macros, three costs, one failure path (panic):
 *
 *  - XMIG_ASSERT   — always compiled. API preconditions and
 *                    invariants whose violation makes further
 *                    execution meaningless (out-of-range width,
 *                    structural desync that would corrupt memory).
 *  - XMIG_AUDIT    — compiled at audit level >= 1 (cheap). O(1)
 *                    checks on hot paths: occupancy bounds, counter
 *                    monotonicity, subset-index ranges. The default
 *                    build keeps these on; they cost a compare and a
 *                    predictable branch.
 *  - XMIG_EXPECT   — compiled at audit level >= 2 (paranoid).
 *                    Expensive structural walks: O(|R|) window sums,
 *                    tag/O_e column reconciliation, whole-machine
 *                    coherence sweeps. Enable with
 *                    -DXMIG_AUDIT_LEVEL=paranoid when chasing a
 *                    silent-corruption bug or validating a refactor.
 *
 * The level is fixed at compile time by the XMIG_AUDIT_LEVEL
 * preprocessor define (0 = off, 1 = cheap, 2 = paranoid), normally
 * set through the CMake cache variable of the same name. Disabled
 * macros compile to nothing: their condition and message arguments
 * are parsed (so they cannot rot) but never evaluated.
 *
 * Code that must *prepare* data for an expensive check should guard
 * the preparation with `if constexpr (kAuditParanoid)` so the whole
 * block folds away below the paranoid level.
 */

#pragma once

#include "util/logging.hpp"

#ifndef XMIG_AUDIT_LEVEL
#define XMIG_AUDIT_LEVEL 1
#endif

#if XMIG_AUDIT_LEVEL < 0 || XMIG_AUDIT_LEVEL > 2
#error "XMIG_AUDIT_LEVEL must be 0 (off), 1 (cheap) or 2 (paranoid)"
#endif

namespace xmig {

/** Compile-time audit level: 0 = off, 1 = cheap, 2 = paranoid. */
inline constexpr int kAuditLevel = XMIG_AUDIT_LEVEL;

/** True when XMIG_AUDIT checks are compiled in. */
inline constexpr bool kAuditCheap = kAuditLevel >= 1;

/** True when XMIG_EXPECT checks are compiled in. */
inline constexpr bool kAuditParanoid = kAuditLevel >= 2;

} // namespace xmig

/** panic() unless the condition holds; always compiled. */
#define XMIG_ASSERT(cond, ...) \
    do { \
        if (!(cond)) { \
            XMIG_PANIC("assertion failed: %s -- %s", #cond, \
                       ::xmig::detail::formatString(__VA_ARGS__).c_str()); \
        } \
    } while (0)

/* Disabled checks keep their arguments compiled-but-unevaluated so
 * that every audit level parses the same code and variables used only
 * inside audits do not become "unused" in release builds. */
#define XMIG_DETAIL_NOOP_CHECK(cond, ...) \
    do { \
        if (false) { \
            (void)(cond); \
            (void)::xmig::detail::formatString(__VA_ARGS__); \
        } \
    } while (0)

#if XMIG_AUDIT_LEVEL >= 1
/** Cheap O(1) invariant audit; panics at audit level >= cheap. */
#define XMIG_AUDIT(cond, ...) \
    do { \
        if (!(cond)) { \
            XMIG_PANIC("audit failed: %s -- %s", #cond, \
                       ::xmig::detail::formatString(__VA_ARGS__).c_str()); \
        } \
    } while (0)
#else
#define XMIG_AUDIT(cond, ...) XMIG_DETAIL_NOOP_CHECK(cond, __VA_ARGS__)
#endif

#if XMIG_AUDIT_LEVEL >= 2
/** Expensive structural audit; panics at audit level paranoid. */
#define XMIG_EXPECT(cond, ...) \
    do { \
        if (!(cond)) { \
            XMIG_PANIC("paranoid audit failed: %s -- %s", #cond, \
                       ::xmig::detail::formatString(__VA_ARGS__).c_str()); \
        } \
    } while (0)
#else
#define XMIG_EXPECT(cond, ...) XMIG_DETAIL_NOOP_CHECK(cond, __VA_ARGS__)
#endif
