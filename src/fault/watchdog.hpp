/**
 * @file
 * xmig-iron watchdog: detects migration pathologies and applies
 * hysteresis backoff.
 *
 * Two failure modes of the affinity splitter are watched:
 *
 *  - **ping-pong livelock**: the execution bounces between cores much
 *    faster than the working set can follow (e.g. after a corrupted
 *    Delta register or a near-balanced bimodal phase). Detection is a
 *    windowed migration count: more than `pingPongLimit` migrations
 *    inside any `kPingPongWindow`-request window trips the watchdog,
 *    which then *suppresses* further migrations for a cooldown period.
 *    Repeated trips double the cooldown up to `kCooldownCap`
 *    (hysteresis); a long clean stretch decays it back to
 *    `kCooldownBase`.
 *
 *  - **degenerate all-one-sign split**: the root transition filter
 *    saturates and stays saturated, i.e. every sampled transition
 *    falls on one side so the "split" no longer partitions the
 *    working set. After `kStuckWindow` consecutive saturated requests
 *    the watchdog requests a filter re-initialization (consumed by
 *    the controller via takeReinit()).
 *
 * The watchdog is pure bookkeeping over (request index, event) pairs:
 * it holds no references into core/ types, so it lives in the fault
 * library and is unit-testable in isolation. Disabled by default —
 * an enabled watchdog is observable behavior (it suppresses
 * migrations), so determinism parity with plain builds requires
 * opt-in.
 */

#pragma once

#include <cstdint>
#include <string>

namespace xmig::obs {
class Journal;
class MetricsRegistry;
} // namespace xmig::obs

namespace xmig {

struct WatchdogConfig
{
    bool enabled = false;
};

struct WatchdogStats
{
    uint64_t livelocks = 0;    ///< ping-pong detections
    uint64_t suppressed = 0;   ///< migrations vetoed during cooldown
    uint64_t reinits = 0;      ///< filter re-initializations requested
    uint64_t cooldownNow = 0;  ///< current cooldown length (gauge)
};

class Watchdog
{
  public:
    /// Window (in migration requests) for the ping-pong count.
    static constexpr uint64_t kPingPongWindow = 2048;
    /// Migrations within one window that count as livelock.
    static constexpr uint64_t kPingPongLimit = 12;
    /// Initial migration-suppression cooldown, in requests.
    static constexpr uint64_t kCooldownBase = 4096;
    /// Hysteresis ceiling for the doubled cooldown.
    static constexpr uint64_t kCooldownCap = uint64_t{1} << 20;
    /// Clean requests after which the cooldown decays back to base.
    static constexpr uint64_t kDecayAfter = uint64_t{1} << 16;
    /// Consecutive saturated requests before a re-init is requested.
    static constexpr uint64_t kStuckWindow = 65536;

    explicit Watchdog(const WatchdogConfig &config);

    bool enabled() const { return config_.enabled; }

    /**
     * Account one migration request. `rootSaturated` is whether the
     * root transition filter reported a clamped (saturated) counter
     * on this request; a long unbroken run of saturated requests is
     * the degenerate-split signal.
     */
    void onRequest(uint64_t now, bool rootSaturated);

    /**
     * Ask whether a migration may be issued at request `now`. Returns
     * false (and counts a suppression) during a livelock cooldown.
     */
    bool migrationAllowed(uint64_t now);

    /** Account one completed migration at request `now`. */
    void onMigration(uint64_t now);

    /**
     * True once if a degenerate split was detected since the last
     * call; the caller is expected to reset the splitter's filters.
     */
    bool takeReinit();

    const WatchdogStats &stats() const { return stats_; }
    const WatchdogConfig &config() const { return config_; }

    /** Register watchdog counters under `prefix` (xmig-scope). */
    void registerMetrics(obs::MetricsRegistry &registry,
                         const std::string &prefix) const;

    /**
     * Attach the xmig-lens journal (non-owning; may be null). A
     * livelock trip records a WatchdogTrip event and flushes the
     * journal to its dump path for post-mortem analysis.
     */
    void attachJournal(obs::Journal *journal) { journal_ = journal; }

  private:
    WatchdogConfig config_;
    WatchdogStats stats_;
    obs::Journal *journal_ = nullptr; ///< xmig-lens hook (may be null)

    // Ping-pong detection state.
    uint64_t windowStart_ = 0;     ///< request index opening the window
    uint64_t windowMigrations_ = 0;
    uint64_t cooldownUntil_ = 0;   ///< suppression active while now < this
    uint64_t cooldown_ = 0;        ///< current (hysteresis) cooldown
    uint64_t lastTrip_ = 0;        ///< request index of the last livelock

    // Degenerate-split detection state.
    uint64_t saturatedRun_ = 0;
    bool reinitPending_ = false;
};

} // namespace xmig
