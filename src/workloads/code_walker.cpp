#include "workloads/code_walker.hpp"

#include <algorithm>


namespace xmig {

namespace {

// Function lengths, in instructions.
constexpr unsigned kMinFuncInstrs = 32;
constexpr unsigned kMaxFuncInstrs = 256;

/** Max consecutive loop iterations of one function. */
constexpr unsigned kMaxLoopTrips = 16;

} // namespace

CodeWalker::CodeWalker(const CodeWalkerConfig &config)
    : config_(config),
      rng_(config.seed)
{
    // Carve the code image into functions of random length.
    const uint64_t total_instrs =
        std::max<uint64_t>(config.codeBytes / kInstrBytes, kMaxFuncInstrs);
    uint64_t at = 0;
    while (at < total_instrs) {
        const uint32_t len = static_cast<uint32_t>(
            rng_.inRange(kMinFuncInstrs, kMaxFuncInstrs));
        funcStart_.push_back(at);
        funcLen_.push_back(len);
        at += len;
    }
    recent_.assign(std::min<size_t>(config.recentDepth, funcStart_.size()),
                   0);
    pickNextFunction();
}

void
CodeWalker::endFunction()
{
    pos_ = 0;
    if (loopsLeft_ > 0) {
        --loopsLeft_;
        return; // loop back to the function start
    }
    pickNextFunction();
}

void
CodeWalker::pickNextFunction()
{
    // Decide where control goes after this function returns: loop it,
    // call something recently used (hot region), or call afar.
    if (rng_.chance(config_.loopProb)) {
        loopsLeft_ = static_cast<uint32_t>(rng_.inRange(1, kMaxLoopTrips));
        return;
    }
    uint32_t next;
    if (!recent_.empty() && rng_.chance(config_.localCallProb)) {
        next = recent_[rng_.below(recent_.size())];
    } else {
        next = static_cast<uint32_t>(rng_.below(funcStart_.size()));
    }
    // Overwrite a random slot of the recent set with the callee (not a
    // FIFO: an entry may survive any number of calls, and duplicates
    // are allowed).
    if (!recent_.empty()) {
        recent_[rng_.below(recent_.size())] = next;
    }
    current_ = next;
    pos_ = 0;
    loopsLeft_ = 0;
}

} // namespace xmig
