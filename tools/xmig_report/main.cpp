/**
 * @file
 * xmig_report CLI (xmig-lens; see report.hpp for the library).
 *
 *   xmig_report report  [--journal J] [--metrics M] [--samples S]
 *   xmig_report explain N --journal J
 *   xmig_report diff A B                (also: xmig_report --diff A B)
 *
 * Exit status, as diff(1): 0 identical / informational, 1 the diffed
 * runs differ, 3 usage or I/O error.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "report.hpp"

using namespace xmig::report;

namespace {

void
usage(std::FILE *to)
{
    std::fputs(
        "usage: xmig_report <mode> ...\n"
        "\n"
        "xmig-lens run reports and run-to-run diffs.\n"
        "\n"
        "modes:\n"
        "  report [--journal J] [--metrics M] [--samples S]\n"
        "      joined run report: causal event breakdown, metric\n"
        "      headlines, histogram percentiles, time-series shape\n"
        "  explain N --journal J\n"
        "      causal chain that led to migration N\n"
        "  diff A B\n"
        "      compare two artifacts of the same kind (metrics JSONL\n"
        "      or event journal). Exit 0 when they match, 1 when they\n"
        "      differ.\n",
        to);
}

bool
readFile(const std::string &path, std::string *out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    *out = ss.str();
    return true;
}

/** Read a file or die with exit 3. */
std::string
slurpOrDie(const std::string &path)
{
    std::string out;
    if (!readFile(path, &out)) {
        std::fprintf(stderr, "xmig_report: cannot read %s\n",
                     path.c_str());
        std::exit(3);
    }
    return out;
}

int
runDiff(const std::string &a, const std::string &b)
{
    const DiffResult result = diffTexts(slurpOrDie(a), slurpOrDie(b));
    std::fputs(result.render().c_str(), stdout);
    if (!result.error.empty())
        return 3;
    return result.differ() ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage(stderr);
        return 3;
    }
    const std::string mode = argv[1];
    std::vector<std::string> positional;
    std::string journalPath, metricsPath, samplesPath;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "xmig_report: %s needs a value\n",
                             arg.c_str());
                std::exit(3);
            }
            return argv[++i];
        };
        if (arg == "--journal")
            journalPath = value();
        else if (arg == "--metrics")
            metricsPath = value();
        else if (arg == "--samples")
            samplesPath = value();
        else if (arg == "-h" || arg == "--help") {
            usage(stdout);
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "xmig_report: unknown option %s\n",
                         arg.c_str());
            usage(stderr);
            return 3;
        } else {
            positional.push_back(arg);
        }
    }

    if (mode == "-h" || mode == "--help") {
        usage(stdout);
        return 0;
    }

    if (mode == "report") {
        std::string journal, metrics, samples;
        if (!journalPath.empty())
            journal = slurpOrDie(journalPath);
        if (!metricsPath.empty())
            metrics = slurpOrDie(metricsPath);
        if (!samplesPath.empty())
            samples = slurpOrDie(samplesPath);
        std::fputs(renderReport(journal, metrics, samples).c_str(),
                   stdout);
        return 0;
    }

    if (mode == "explain") {
        if (positional.size() != 1 || journalPath.empty()) {
            std::fprintf(stderr,
                         "xmig_report: explain needs a migration "
                         "number and --journal\n");
            return 3;
        }
        char *end = nullptr;
        const unsigned long long n =
            std::strtoull(positional[0].c_str(), &end, 10);
        if (end == nullptr || *end != '\0') {
            std::fprintf(stderr,
                         "xmig_report: '%s' is not a migration "
                         "number\n", positional[0].c_str());
            return 3;
        }
        const JournalDoc doc =
            parseJournal(slurpOrDie(journalPath));
        const std::string out = renderExplain(doc, n);
        std::fputs(out.c_str(), stdout);
        return out.rfind("error:", 0) == 0 ? 3 : 0;
    }

    if (mode == "diff" || mode == "--diff") {
        if (positional.size() != 2) {
            std::fprintf(stderr,
                         "xmig_report: diff needs exactly two "
                         "inputs\n");
            return 3;
        }
        return runDiff(positional[0], positional[1]);
    }

    std::fprintf(stderr, "xmig_report: unknown mode '%s'\n",
                 mode.c_str());
    usage(stderr);
    return 3;
}
