/**
 * @file
 * Portable Clang thread-safety annotations (xmig-sentinel).
 *
 * These macros expand to Clang's `-Wthread-safety` capability
 * attributes when the compiler supports them and to nothing
 * everywhere else, so the annotated headers stay warning-free under
 * GCC. Together with the dynamic TSan CI job (docs/parallelism.md)
 * they give the repo a *static* race detector: the CI `lint` job
 * also builds the runner/obs/fault targets with clang and
 * `-Wthread-safety -Werror=thread-safety`, so acquiring the wrong
 * lock — or none — around annotated state fails the build instead of
 * flaking a soak.
 *
 * Conventions (docs/analysis.md, "Static analysis: xmig-sentinel"):
 *  - every `std::mutex` / `std::shared_mutex` member names the state
 *    it guards via XMIG_GUARDED_BY on that state (the `naked-mutex`
 *    lint rule enforces this);
 *  - accessors that are documented as safe only in a quiescent phase
 *    (after a sweep's join) carry XMIG_NO_THREAD_SAFETY_ANALYSIS plus
 *    a comment saying *why* the lock is not taken;
 *  - single-thread-confined classes (one instance per sweep cell:
 *    MetricsRegistry, FaultInjector, ...) are documented as such and
 *    carry no annotations — confinement, not locking, is their
 *    thread-safety story.
 */

#pragma once

#if defined(__clang__) && (!defined(SWIG))
#define XMIG_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define XMIG_THREAD_ANNOTATION(x) // no-op outside clang
#endif

/** Marks a type as a lockable capability (rarely needed: std::mutex
 *  is already annotated inside libc++/libstdc++ under clang). */
#define XMIG_CAPABILITY(x) XMIG_THREAD_ANNOTATION(capability(x))

/** Marks a member as readable/writable only with `x` held. */
#define XMIG_GUARDED_BY(x) XMIG_THREAD_ANNOTATION(guarded_by(x))

/** As XMIG_GUARDED_BY, for the pointee of a pointer member. */
#define XMIG_PT_GUARDED_BY(x) XMIG_THREAD_ANNOTATION(pt_guarded_by(x))

/** Declares that callers must hold `...` when calling the function. */
#define XMIG_REQUIRES(...) \
    XMIG_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/** Declares that callers must NOT hold `...` (deadlock guard). */
#define XMIG_EXCLUDES(...) \
    XMIG_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/** The function acquires `...` and does not release it. */
#define XMIG_ACQUIRE(...) \
    XMIG_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/** The function releases `...`. */
#define XMIG_RELEASE(...) \
    XMIG_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/** RAII types that acquire in the ctor and release in the dtor. */
#define XMIG_SCOPED_CAPABILITY XMIG_THREAD_ANNOTATION(scoped_lockable)

/** The function returns a reference to the capability guarding it. */
#define XMIG_RETURN_CAPABILITY(x) \
    XMIG_THREAD_ANNOTATION(lock_returned(x))

/**
 * Opts a function out of the analysis. Use only with a comment
 * explaining the manual reasoning (e.g. "quiescent after join").
 */
#define XMIG_NO_THREAD_SAFETY_ANALYSIS \
    XMIG_THREAD_ANNOTATION(no_thread_safety_analysis)
