#include "obs/prof.hpp"

#include <cstdio>

#include "util/stats.hpp"

namespace xmig::obs {

namespace {

/** Innermost live scope (single-threaded simulator). */
thread_local ProfScope *gCurrentScope = nullptr;

std::string
msString(uint64_t ns)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f",
                  static_cast<double>(ns) / 1e6);
    return buf;
}

} // namespace

ProfileRegistry &
ProfileRegistry::instance()
{
    static ProfileRegistry registry;
    return registry;
}

void
ProfileRegistry::record(const char *name, uint64_t elapsed_ns,
                        uint64_t child_ns)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &e : entries_) {
        if (e.name == name) {
            ++e.calls;
            e.totalNs += elapsed_ns;
            e.childNs += child_ns;
            return;
        }
    }
    ProfEntry e;
    e.name = name;
    e.calls = 1;
    e.totalNs = elapsed_ns;
    e.childNs = child_ns;
    entries_.push_back(std::move(e));
}

const ProfEntry *
ProfileRegistry::find(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &e : entries_) {
        if (e.name == name)
            return &e;
    }
    return nullptr;
}

std::string
ProfileRegistry::report(const std::string &title) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    AsciiTable table({"phase", "calls", "total_ms", "self_ms"});
    for (const auto &e : entries_) {
        char calls[32];
        std::snprintf(calls, sizeof(calls), "%llu",
                      (unsigned long long)e.calls);
        table.addRow({e.name, calls, msString(e.totalNs),
                      msString(e.selfNs())});
    }
    return table.render(title);
}

void
ProfileRegistry::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
}

ProfScope::ProfScope(const char *name)
    : name_(name),
      start_(std::chrono::steady_clock::now()),
      parent_(gCurrentScope)
{
    gCurrentScope = this;
}

ProfScope::~ProfScope()
{
    const auto end = std::chrono::steady_clock::now();
    const uint64_t elapsed = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            end - start_)
            .count());
    ProfileRegistry::instance().record(name_, elapsed, childNs_);
    if (parent_)
        parent_->childNs_ += elapsed;
    gCurrentScope = parent_;
}

} // namespace xmig::obs
