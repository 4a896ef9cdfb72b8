#include "util/artifact.hpp"

#include <cstdio>

#include "util/logging.hpp"

namespace xmig {

void
writeArtifact(const std::string &path, const std::string &text,
              const char *flag)
{
    if (path.empty())
        return;
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (f == nullptr)
        XMIG_FATAL("cannot open %s output '%s'", flag, path.c_str());
    const bool written =
        std::fwrite(text.data(), 1, text.size(), f) == text.size();
    if (std::fclose(f) != 0 || !written)
        XMIG_FATAL("short write to %s output '%s'", flag,
                   path.c_str());
}

} // namespace xmig
