#include "core/engine.hpp"

#include <bit>

#include "core/shadow_audit.hpp"
#include "fault/fault_injector.hpp"
#include "obs/journal.hpp"
#include "util/contracts.hpp"

namespace xmig {

namespace {

unsigned
arBits(const EngineConfig &config)
{
    // bits[A_R] = bits[O_e] + log2(|R|)  (section 3.2)
    const unsigned log_r = config.windowSize <= 1
        ? 0
        : static_cast<unsigned>(std::bit_width(config.windowSize - 1));
    return config.affinityBits + log_r;
}

} // namespace

AffinityEngine::AffinityEngine(const EngineConfig &config, OeStore &store)
    : config_(config),
      store_(store),
      delta_(config.affinityBits + 1),
      windowAffinity_(arBits(config))
{
    XMIG_ASSERT(config_.windowSize > 0 && config_.affinityBits > 0,
                "degenerate engine config: windowSize=%zu "
                "affinityBits=%u",
                config_.windowSize, config_.affinityBits);
    if (config_.window == WindowKind::Fifo)
        fifo_ = std::make_unique<FifoWindow>(config_.windowSize);
    else
        lru_ = std::make_unique<DistinctLruWindow>(config_.windowSize);
    if (config_.shadowAudit)
        shadow_ = std::make_unique<ShadowAudit>(config_, config_.shadowTag);
}

AffinityEngine::~AffinityEngine() = default;

int64_t
AffinityEngine::saturate(int64_t v) const
{
    return saturateToBits(v, config_.affinityBits);
}

void
AffinityEngine::auditWindowSum(size_t members) const
{
    if constexpr (kAuditParanoid) {
        if (config_.ar != ArKind::Exact)
            return;
        int64_t sum = 0;
        size_t count = 0;
        const auto acc = [&](const WindowSlot &slot) {
            sum += slot.ie;
            ++count;
        };
        if (config_.window == WindowKind::Fifo)
            fifo_->forEach(acc);
        else
            lru_->forEach(acc);
        XMIG_EXPECT(sum == sumIe_ && count == members,
                    "A_R drift: cached sum(I_e) %lld over %zu members, "
                    "recomputed %lld over %zu",
                    (long long)sumIe_, members, (long long)sum, count);
    } else {
        (void)members;
    }
}

RefOutcome
AffinityEngine::reference(uint64_t line)
{
    ++references_;
    RefOutcome out;
    const int64_t delta = delta_.get();
    size_t members;
    // Legitimate departures from the unsaturated single-engine
    // reference model disarm the shadow *before* it compares this
    // reference; everything else that mismatches is a real bug.
    bool shadow_live = shadow_ && shadow_->armed();

    if (config_.window == WindowKind::DistinctLru && lru_->contains(line)) {
        // Already in R: recency update only; A_e = I_e + Delta.
        out.ae = lru_->ieOf(line) + delta;
        out.inWindow = true;
        lru_->touch(line);
        members = lru_->size();
        // Neither sum(I_e) nor the Figure-2 register changes.
    } else {
        if (shadow_live && config_.window == WindowKind::Fifo &&
            fifo_->find(line) != nullptr) {
            // The line re-enters R while still a member: the O_e
            // fetched below predates its entry, so the postponed
            // identities are stale by construction (section 3.2
            // tolerates this; the spec model does not reproduce it).
            shadow_->disarm("duplicate entry in FIFO R-window");
            shadow_live = false;
        }

        // e enters R from outside: fetch O_e (miss installs Delta,
        // forcing A_e = 0), derive A_e and I_e with the pre-update
        // Delta, and handle the displaced line f symmetrically.
        const uint64_t misses_before =
            shadow_live ? store_.stats().misses : 0;
        const int64_t oe = store_.lookup(line, delta);
        if (shadow_live) {
            const bool missed = store_.stats().misses != misses_before;
            if (missed && oe != delta) {
                // Miss-install clamped O_e = Delta to the affinity
                // width, or a non-zero initial-affinity policy is
                // active; either way first-touch A_e != 0.
                shadow_->disarm("miss-installed O_e differs from Delta");
                shadow_live = false;
            } else if (missed && shadow_->knowsLine(line)) {
                shadow_->disarm("O_e entry lost (finite affinity cache "
                                "eviction)");
                shadow_live = false;
            } else if (!missed && !shadow_->knowsLine(line)) {
                shadow_->disarm("foreign O_e entry (shared store written "
                                "by a sibling mechanism)");
                shadow_live = false;
            }
        }
        out.ae = oe - delta;

        const int64_t ie_raw = oe - 2 * delta;
        const int64_t ie = saturate(ie_raw);
        if (shadow_live && ie != ie_raw) {
            shadow_->disarm("I_e saturated");
            shadow_live = false;
        }

        WindowSlot evicted;
        bool have_evicted;
        if (config_.window == WindowKind::Fifo) {
            have_evicted = fifo_->push(line, ie, &evicted);
            members = fifo_->size();
        } else {
            have_evicted = lru_->insert(line, ie, &evicted);
            members = lru_->size();
        }
        XMIG_AUDIT(members >= 1 && members <= config_.windowSize,
                   "R-window occupancy %zu out of [1, %zu]", members,
                   config_.windowSize);

        int64_t of = 0;
        if (have_evicted) {
            const int64_t of_raw = evicted.ie + 2 * delta;
            of = saturate(of_raw);
            if (shadow_live && of != of_raw) {
                shadow_->disarm("O_f saturated on write-back");
                shadow_live = false;
            }
            store_.store(evicted.line, of);
        }

        if (config_.ar == ArKind::Figure2) {
            // Literal datapath: A_R += O_e - O_f.
            windowAffinity_.add(oe - of);
        } else {
            sumIe_ += ie;
            if (have_evicted)
                sumIe_ -= evicted.ie;
        }
    }

    int64_t arRaw = 0; // Exact only: unclamped sum(I_e) + |R| * Delta
    if (config_.ar == ArKind::Exact) {
        // A_R = sum over members of A_e = sum(I_e) + |R| * Delta.
        // The register range straddles zero, so saturating preserves
        // the sign (affinitySign(0) = +1 on both sides); the Delta
        // step below can therefore read sign(A_R) off the raw sum and
        // the register is written ONCE, after the step, instead of
        // before and after it (xmig-swift hot path).
        arRaw = sumIe_ + static_cast<int64_t>(members) * delta;
        if (shadow_live &&
            saturateToBits(arRaw, windowAffinity_.bits()) != arRaw) {
            shadow_->disarm("A_R saturated");
            shadow_live = false;
        }
    }

    // Delta accumulates the sign of the (updated) window affinity;
    // conceptually every member gains sign(A_R) and every outsider
    // loses it, which the I_e / O_e invariants realize lazily.
    const int64_t arSign = config_.ar == ArKind::Exact
        ? affinitySign(arRaw)
        : affinitySign(windowAffinity_.get());
    if (delta_.add(arSign) && shadow_live) {
        shadow_->disarm("Delta saturated");
        shadow_live = false;
    }
    XMIG_AUDIT(delta_.get() - delta >= -1 && delta_.get() - delta <= 1,
               "Delta stepped by %lld, not +/-1",
               (long long)(delta_.get() - delta));

    if (config_.ar == ArKind::Exact) {
        // Delta moved by step = Delta' - Delta, so the exact A_R for
        // observers is arRaw + step * |R| — no second full recompute.
        const int64_t step = delta_.get() - delta;
        const bool clamped = windowAffinity_.set(
            arRaw + step * static_cast<int64_t>(members));
        if (shadow_live && clamped) {
            shadow_->disarm("A_R saturated");
            shadow_live = false;
        }
    }

    auditWindowSum(members);

    if (config_.faults)
        injectSoftErrors(out);

    if (shadow_)
        shadow_->onReference(line, *this, out.ae);
    return out;
}

void
AffinityEngine::injectSoftErrors(RefOutcome &out)
{
    XMIG_ASSERT(config_.faults != nullptr,
                "injectSoftErrors called with no injector armed");
    FaultInjector &fi = *config_.faults;
    bool injected = false;
    if (fi.armedFor(FaultSite::Ae) && fi.draw(FaultSite::Ae)) {
        // Transient: corrupts this reference's A_e on the way to the
        // transition filter; engine-internal state is untouched.
        out.ae = fi.flipBit(out.ae, config_.affinityBits);
        injected = true;
    }
    if (fi.armedFor(FaultSite::Delta) && fi.draw(FaultSite::Delta)) {
        // Persistent until the +/-1 walk re-converges.
        delta_.set(fi.flipBit(delta_.get(), config_.affinityBits + 1));
        injected = true;
    }
    if (fi.armedFor(FaultSite::Ar) && fi.draw(FaultSite::Ar)) {
        // In ArKind::Exact the register is recomputed from sum(I_e)
        // next reference, so the flip self-heals after one Delta step;
        // in ArKind::Figure2 the corruption persists in the recurrence.
        windowAffinity_.set(
            fi.flipBit(windowAffinity_.get(), windowAffinity_.bits()));
        injected = true;
    }
    if (injected && shadow_)
        shadow_->disarm("injected soft error");
}

void
AffinityEngine::disarmShadow(const char *reason)
{
    XMIG_ASSERT(reason != nullptr && *reason != '\0',
                "shadow disarm needs a stated reason");
    if (shadow_) {
        if (shadow_->armed()) {
            XMIG_JOURNAL(journal_, obs::JournalKind::ShadowDisarm,
                         obs::JournalCause::Explicit,
                         static_cast<int64_t>(references_));
        }
        shadow_->disarm(reason);
    }
}

EngineCheckpoint
AffinityEngine::checkpoint() const
{
    EngineCheckpoint c;
    c.delta = delta_.get();
    c.windowAffinity = windowAffinity_.get();
    c.sumIe = sumIe_;
    c.references = references_;
    if (config_.window == WindowKind::Fifo)
        fifo_->snapshot(c.window);
    else
        lru_->snapshot(c.window);
    return c;
}

void
AffinityEngine::restore(const EngineCheckpoint &ckpt)
{
    XMIG_ASSERT(ckpt.window.size() <= config_.windowSize,
                "checkpoint window (%zu slots) exceeds capacity of the "
                "engine's configured |R| = %zu",
                ckpt.window.size(), config_.windowSize);
    delta_.set(ckpt.delta);
    windowAffinity_.set(ckpt.windowAffinity);
    sumIe_ = ckpt.sumIe;
    references_ = ckpt.references;
    if (config_.window == WindowKind::Fifo)
        fifo_->restore(ckpt.window);
    else
        lru_->restore(ckpt.window);
    disarmShadow("state restored from checkpoint");
}

std::optional<int64_t>
AffinityEngine::affinityOf(uint64_t line) const
{
    if (config_.window == WindowKind::Fifo) {
        if (const WindowSlot *slot = fifo_->find(line))
            return slot->ie + delta_.get();
    } else if (lru_->contains(line)) {
        return lru_->ieOf(line) + delta_.get();
    }
    if (auto oe = store_.peek(line))
        return *oe - delta_.get();
    return std::nullopt;
}

} // namespace xmig
