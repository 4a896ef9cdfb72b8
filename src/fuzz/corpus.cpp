#include "fuzz/corpus.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <dirent.h>
#include <sstream>
#include <sys/stat.h>
#include <sys/types.h>

#include "util/logging.hpp"

namespace xmig {

namespace {

/** FNV-1a 64 over `s` — the content address of a corpus entry. */
uint64_t
fnv1a64(const std::string &s)
{
    uint64_t h = 14695981039346656037ULL;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ULL;
    }
    return h;
}

bool
slurp(const std::string &path, std::string *out)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return false;
    std::string body;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        body.append(buf, n);
    std::fclose(f);
    *out = std::move(body);
    return true;
}

/** Corpus entry file names in `dir`, sorted (deterministic load). */
std::vector<std::string>
listCorpusEntries(const std::string &dir)
{
    std::vector<std::string> names;
    DIR *d = ::opendir(dir.c_str());
    if (d == nullptr)
        return names;
    while (const struct dirent *e = ::readdir(d)) {
        const std::string name = e->d_name;
        if (name.rfind("case-", 0) == 0 && name.size() > 9 &&
            name.compare(name.size() - 4, 4, ".txt") == 0)
            names.push_back(name);
    }
    ::closedir(d);
    std::sort(names.begin(), names.end());
    return names;
}

} // namespace

std::string
renderCorpusEntry(const FuzzCase &c)
{
    std::ostringstream out;
    out << "plan=" << c.plan << "\n"
        << "benchmark=" << c.benchmark << "\n"
        << "workload_seed=" << c.workloadSeed << "\n"
        << "instructions=" << c.instructions << "\n";
    return out.str();
}

std::string
corpusEntryName(const FuzzCase &c)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(
                      fnv1a64(renderCorpusEntry(c))));
    return std::string("case-") + buf + ".txt";
}

bool
parseCorpusEntry(const std::string &body, FuzzCase *out)
{
    FuzzCase c;
    bool sawPlan = false;
    size_t pos = 0;
    while (pos < body.size()) {
        size_t eol = body.find('\n', pos);
        if (eol == std::string::npos)
            eol = body.size();
        const std::string line = body.substr(pos, eol - pos);
        pos = eol + 1;
        if (line.empty() || line[0] == '#')
            continue;
        const size_t eq = line.find('=');
        if (eq == std::string::npos)
            return false;
        const std::string key = line.substr(0, eq);
        const std::string value = line.substr(eq + 1);
        if (key == "plan") {
            // "" parses as a no-fault plan, but a corpus entry that
            // injects nothing is dead weight: reject it.
            if (value.empty())
                return false;
            c.plan = value;
            sawPlan = true;
        } else if (key == "benchmark") {
            if (value.empty())
                return false;
            c.benchmark = value;
        } else if (key == "workload_seed") {
            c.workloadSeed =
                std::strtoull(value.c_str(), nullptr, 10);
        } else if (key == "instructions") {
            c.instructions =
                std::strtoull(value.c_str(), nullptr, 10);
            if (c.instructions == 0)
                return false;
        } else {
            return false;
        }
    }
    if (!sawPlan)
        return false;
    FaultPlan parsed;
    std::string error;
    if (!FaultPlan::parse(c.plan, &parsed, &error))
        return false;
    *out = std::move(c);
    return true;
}

void
ensureDir(const std::string &path)
{
    if (::mkdir(path.c_str(), 0755) == 0)
        return;
    struct stat st = {};
    if (::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode))
        return;
    XMIG_FATAL("cannot create directory '%s'", path.c_str());
}

std::vector<FuzzCase>
loadCorpus(const std::string &dir, std::set<std::string> *names)
{
    ensureDir(dir);
    std::vector<FuzzCase> cases;
    for (const std::string &name : listCorpusEntries(dir)) {
        names->insert(name);
        std::string body;
        FuzzCase c;
        if (slurp(dir + "/" + name, &body) &&
            parseCorpusEntry(body, &c))
            cases.push_back(std::move(c));
        else
            XMIG_WARN("skipping corrupt corpus entry '%s'",
                      name.c_str());
    }
    return cases;
}

} // namespace xmig
