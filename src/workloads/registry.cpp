#include "workloads/registry.hpp"

#include <functional>
#include <unordered_map>

#include "util/logging.hpp"
#include "workloads/kernels.hpp"

namespace xmig {

namespace {

struct RegistryEntry
{
    const char *name;
    const char *suite;
    std::unique_ptr<Workload> (*factory)();
};

const RegistryEntry kRegistry[] = {
    {"164.gzip", "SPEC2000", makeGzip},
    {"171.swim", "SPEC2000", makeSwim},
    {"172.mgrid", "SPEC2000", makeMgrid},
    {"175.vpr", "SPEC2000", makeVpr},
    {"176.gcc", "SPEC2000", makeGcc},
    {"179.art", "SPEC2000", makeArt},
    {"181.mcf", "SPEC2000", makeMcf},
    {"186.crafty", "SPEC2000", makeCrafty},
    {"188.ammp", "SPEC2000", makeAmmp},
    {"197.parser", "SPEC2000", makeParser},
    {"255.vortex", "SPEC2000", makeVortex},
    {"256.bzip2", "SPEC2000", makeBzip2},
    {"300.twolf", "SPEC2000", makeTwolf},
    {"bh", "Olden", makeBh},
    {"bisort", "Olden", makeBisort},
    {"em3d", "Olden", makeEm3d},
    {"health", "Olden", makeHealth},
    {"mst", "Olden", makeMst},
};

/**
 * xmig-storm adversarial kernels, outside the Table-1 array so that
 * allWorkloadNames() keeps the paper's 18-benchmark universe.
 */
const RegistryEntry kAdversarial[] = {
    {"storm.unsplit", "xmig-storm", makeStormUnsplit},
    {"storm.phase", "xmig-storm", makeStormPhase},
    {"storm.thrash", "xmig-storm", makeStormThrash},
};

/** Strip the "NNN." SPEC number prefix if present. */
std::string
shortName(const std::string &name)
{
    const size_t dot = name.find('.');
    if (dot != std::string::npos && dot > 0 &&
        name.find_first_not_of("0123456789") >= dot) {
        return name.substr(dot + 1);
    }
    return name;
}

/** The entry `name` resolves to, or null. */
const RegistryEntry *
findEntry(const std::string &name)
{
    for (const auto &e : kRegistry) {
        if (name == e.name || shortName(name) == shortName(e.name))
            return &e;
    }
    for (const auto &e : kAdversarial) {
        if (name == e.name)
            return &e;
    }
    return nullptr;
}

} // namespace

const std::vector<std::string> &
allWorkloadNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> v;
        for (const auto &e : kRegistry)
            v.emplace_back(e.name);
        return v;
    }();
    return names;
}

const std::vector<std::string> &
specWorkloadNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> v;
        for (const auto &e : kRegistry) {
            if (std::string(e.suite) == "SPEC2000")
                v.emplace_back(e.name);
        }
        return v;
    }();
    return names;
}

const std::vector<std::string> &
oldenWorkloadNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> v;
        for (const auto &e : kRegistry) {
            if (std::string(e.suite) == "Olden")
                v.emplace_back(e.name);
        }
        return v;
    }();
    return names;
}

const std::vector<std::string> &
adversarialWorkloadNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> v;
        for (const auto &e : kAdversarial)
            v.emplace_back(e.name);
        return v;
    }();
    return names;
}

bool
isWorkloadName(const std::string &name)
{
    return findEntry(name) != nullptr;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (const RegistryEntry *e = findEntry(name))
        return e->factory();
    XMIG_FATAL("unknown workload '%s'", name.c_str());
}

} // namespace xmig
