/**
 * @file
 * xmig_lint CLI (xmig-sentinel; see lint.hpp for the rule catalogue).
 *
 *   xmig_lint [options] [files...]
 *
 * With no explicit files, the TU list is the intersection of
 * build/compile_commands.json with <root>/src, plus every header
 * under <root>/src — one source of truth shared with clang-tidy and
 * editors (CMAKE_EXPORT_COMPILE_COMMANDS is ON at the top level).
 *
 * Exit status: 0 clean, 1 on any finding (a justified per-site
 * `// xmig-lint: allow(rule) -- why` is the only waiver), 2 on usage
 * or I/O errors.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint.hpp"

namespace fs = std::filesystem;
using namespace xmig::lint;

namespace {

void
usage(std::FILE *to)
{
    std::fputs(
        "usage: xmig_lint [options] [files...]\n"
        "\n"
        "xmig-sentinel determinism & concurrency linter.\n"
        "\n"
        "options:\n"
        "  --root DIR              repo root (default: cwd); paths are\n"
        "                          reported relative to it\n"
        "  --compile-commands F    compile_commands.json for the TU\n"
        "                          list (default: <root>/build/...)\n"
        "  --json                  emit findings as JSON to stdout\n"
        "  --sarif F               also write a SARIF 2.1.0 report\n"
        "  --list                  print the TU list and exit\n"
        "  -h, --help              this text\n",
        to);
}

bool
readFile(const fs::path &path, std::string *out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    *out = ss.str();
    return true;
}

bool
writeFile(const fs::path &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        return false;
    out << content;
    return static_cast<bool>(out);
}

bool
hasExtension(const fs::path &p, std::initializer_list<const char *> exts)
{
    const std::string e = p.extension().string();
    for (const char *x : exts) {
        if (e == x)
            return true;
    }
    return false;
}

/** Path relative to root, with "./" trimmed; generic separators. */
std::string
relTo(const fs::path &root, const fs::path &p)
{
    std::error_code ec;
    fs::path rel = fs::relative(p, root, ec);
    if (ec || rel.empty() || *rel.begin() == "..")
        return p.generic_string();
    return rel.generic_string();
}

} // namespace

int
main(int argc, char **argv)
{
    fs::path root = fs::current_path();
    fs::path compileCommands;
    fs::path sarifPath;
    bool asJson = false;
    bool listOnly = false;
    std::vector<std::string> explicitFiles;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "xmig_lint: %s needs a value\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--root") {
            root = value();
        } else if (arg == "--compile-commands") {
            compileCommands = value();
        } else if (arg == "--sarif") {
            sarifPath = value();
        } else if (arg == "--json") {
            asJson = true;
        } else if (arg == "--list") {
            listOnly = true;
        } else if (arg == "-h" || arg == "--help") {
            usage(stdout);
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "xmig_lint: unknown option %s\n",
                         arg.c_str());
            usage(stderr);
            return 2;
        } else {
            explicitFiles.push_back(arg);
        }
    }
    root = fs::absolute(root);
    if (compileCommands.empty())
        compileCommands = root / "build" / "compile_commands.json";

    // ----- assemble the TU list ---------------------------------------
    std::vector<std::string> tuList;
    if (!explicitFiles.empty()) {
        tuList = explicitFiles;
    } else {
        const fs::path srcDir = root / "src";
        std::string cc;
        if (readFile(compileCommands, &cc)) {
            // Sources: what the build actually compiles, restricted
            // to the library tree (tests/bench assert and print by
            // design and are not determinism-critical).
            for (const std::string &f : filesFromCompileCommands(cc)) {
                const fs::path p(f);
                const std::string gen = p.generic_string();
                if (gen.find("/src/") != std::string::npos &&
                    hasExtension(p, {".cpp", ".cc", ".cxx"}))
                    tuList.push_back(f);
            }
        } else if (fs::exists(srcDir)) {
            // No build tree yet: fall back to walking for sources.
            for (const auto &e :
                 fs::recursive_directory_iterator(srcDir)) {
                if (e.is_regular_file() &&
                    hasExtension(e.path(), {".cpp", ".cc", ".cxx"}))
                    tuList.push_back(e.path().string());
            }
        }
        // Headers are not TUs in compile_commands; walk for them.
        if (fs::exists(srcDir)) {
            for (const auto &e :
                 fs::recursive_directory_iterator(srcDir)) {
                if (e.is_regular_file() &&
                    hasExtension(e.path(), {".hpp", ".h", ".hh"}))
                    tuList.push_back(e.path().string());
            }
        }
        if (tuList.empty()) {
            std::fprintf(stderr,
                         "xmig_lint: no inputs: neither %s nor %s "
                         "yielded files (configure the build or pass "
                         "files explicitly)\n",
                         compileCommands.string().c_str(),
                         srcDir.string().c_str());
            return 2;
        }
    }

    // ----- read + lint ------------------------------------------------
    std::vector<std::pair<std::string, std::string>> files;
    files.reserve(tuList.size());
    for (const std::string &f : tuList) {
        std::string content;
        if (!readFile(f, &content)) {
            std::fprintf(stderr, "xmig_lint: cannot read %s\n",
                         f.c_str());
            return 2;
        }
        files.emplace_back(relTo(root, f), std::move(content));
    }
    std::sort(files.begin(), files.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });
    files.erase(std::unique(files.begin(), files.end(),
                            [](const auto &a, const auto &b) {
                                return a.first == b.first;
                            }),
                files.end());
    if (listOnly) {
        for (const auto &[path, content] : files)
            std::printf("%s\n", path.c_str());
        return 0;
    }
    const std::vector<Finding> findings = lintFiles(files);

    if (!sarifPath.empty() &&
        !writeFile(sarifPath, renderSarif(findings))) {
        std::fprintf(stderr, "xmig_lint: cannot write %s\n",
                     sarifPath.string().c_str());
        return 2;
    }
    if (asJson)
        std::fputs(renderJson(findings).c_str(), stdout);
    else
        std::fputs(renderText(findings).c_str(), stdout);
    std::fprintf(
        stderr,
        "xmig_lint: %zu file(s), %zu finding(s)\n", files.size(),
        findings.size());
    return findings.empty() ? 0 : 1;
}
