#include "core/shadow_audit.hpp"

#include "core/engine.hpp"
#include "util/contracts.hpp"

namespace xmig {

namespace {

DirectEngineConfig
shadowConfigOf(const EngineConfig &config)
{
    DirectEngineConfig dc;
    dc.windowSize = config.windowSize;
    dc.window = config.window;
    return dc;
}

} // namespace

ShadowAudit::ShadowAudit(const EngineConfig &config, std::string tag)
    : direct_(shadowConfigOf(config)),
      tag_(std::move(tag)),
      exactAr_(config.ar == ArKind::Exact),
      deepEvery_(config.shadowDeepCheckEvery)
{
    XMIG_ASSERT(config.shadow == ShadowMode::Armed,
                "shadow audit [%s] constructed with shadow mode off",
                tag_.c_str());
    if (!exactAr_) {
        // The Figure-2 register recurrence tracks entry/exit but not
        // the per-step drift of member affinities, so neither its A_R
        // nor the Delta (and hence A_e) evolution matches the spec.
        disarm("ArKind::Figure2 diverges from Definition 1 by design");
    }
}

void
ShadowAudit::disarm(const char *reason)
{
    if (!armed_)
        return;
    XMIG_ASSERT(reason != nullptr && *reason != '\0',
                "shadow audit [%s] disarmed without a reason",
                tag_.c_str());
    armed_ = false;
    XMIG_WARN("shadow audit [%s] disarmed after %llu comparisons: %s",
              tag_.c_str(), (unsigned long long)comparisons_, reason);
}

void
ShadowAudit::onReference(uint64_t line, const AffinityEngine &engine,
                         int64_t ae)
{
    if (!armed_)
        return;
    ++comparisons_;

    const int64_t ref_ae = direct_.reference(line);
    if (ae != ref_ae) {
        XMIG_PANIC("shadow audit [%s]: A_e of line %llu diverged at "
                   "reference %llu: engine %lld, shadow model %lld",
                   tag_.c_str(), (unsigned long long)line,
                   (unsigned long long)comparisons_, (long long)ae,
                   (long long)ref_ae);
    }
    if (exactAr_ &&
        engine.windowAffinity() != direct_.windowAffinity()) {
        XMIG_PANIC("shadow audit [%s]: A_R diverged at reference "
                   "%llu: engine %lld, shadow model %lld",
                   tag_.c_str(), (unsigned long long)comparisons_,
                   (long long)engine.windowAffinity(),
                   (long long)direct_.windowAffinity());
    }

    if (deepEvery_ != 0 && ++sinceDeep_ >= deepEvery_) {
        sinceDeep_ = 0;
        deepCheck(engine);
    }
}

void
ShadowAudit::deepCheck(const AffinityEngine &engine)
{
    ++deepChecks_;
    for (const auto &[element, affinity] : direct_.affinities()) {
        const auto got = engine.affinityOf(element);
        if (!got) {
            XMIG_PANIC("shadow audit [%s]: element %llu tracked by "
                       "the shadow model is unknown to the engine "
                       "(neither in R nor in the O_e store)",
                       tag_.c_str(), (unsigned long long)element);
        }
        if (*got != affinity) {
            XMIG_PANIC("shadow audit [%s]: affinity of element %llu "
                       "diverged: engine %lld, shadow model %lld "
                       "(deep sweep %llu)",
                       tag_.c_str(), (unsigned long long)element,
                       (long long)*got, (long long)affinity,
                       (unsigned long long)deepChecks_);
        }
    }
}

} // namespace xmig
