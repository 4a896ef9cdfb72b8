/**
 * @file
 * Synthetic instruction-fetch generator.
 *
 * The SPEC-like and Olden-like kernels in this library are real
 * algorithms, but their *code* is this library's code, so we cannot
 * observe genuine instruction-fetch addresses. The CodeWalker stands
 * in: it fetches through a synthetic static code image laid out as
 * functions of straight-line instructions, with tunable code
 * footprint, call locality, and looping. Small footprints reproduce
 * the near-zero IL1 miss rates of most benchmarks in Table 1;
 * multi-hundred-KB footprints with weak locality reproduce the heavy
 * instruction-miss behavior of 176.gcc, 186.crafty and 255.vortex.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "mem/ref.hpp"
#include "mem/trace.hpp"
#include "util/rng.hpp"

namespace xmig {

/** Static shape of the synthetic code image and its dynamic behavior. */
struct CodeWalkerConfig
{
    uint64_t codeBytes = 8 * 1024; ///< static code footprint

    /** Probability of re-running the current function (a loop). */
    double loopProb = 0.4;

    /** Probability the next function comes from the recent set. */
    double localCallProb = 0.9;
    /** Size of the recent-function set (the "hot region"). */
    unsigned recentDepth = 8;

    uint64_t seed = 12345;
};

/**
 * Walks the synthetic code image one instruction at a time.
 */
class CodeWalker
{
  public:
    static constexpr uint64_t kBaseAddr = 0x0040'0000; ///< code image start
    static constexpr uint64_t kInstrBytes = 4;

    explicit CodeWalker(const CodeWalkerConfig &config);

    /**
     * Emit one instruction fetch into `sink` and advance: inline
     * within a function, out of line at its end.
     */
    void
    step(RefSink &sink)
    {
        sink.access(MemRef::ifetch(pc()));
        if (++pos_ == funcLen_[current_])
            endFunction();
    }

    /** Current fetch address. */
    uint64_t
    pc() const
    {
        return kBaseAddr + (funcStart_[current_] + pos_) * kInstrBytes;
    }

  private:
    /** Leave the current function: loop it or pick the next one. */
    void endFunction();
    void pickNextFunction();

    CodeWalkerConfig config_;
    Rng rng_;
    std::vector<uint64_t> funcStart_; ///< in instructions
    std::vector<uint32_t> funcLen_;   ///< in instructions
    std::vector<uint32_t> recent_;    ///< recently called functions
    uint32_t current_ = 0;
    uint32_t pos_ = 0;
    uint32_t loopsLeft_ = 0;
};

} // namespace xmig
