/**
 * @file
 * The one writer for output files a flag names (--metrics-out,
 * --csv, --repro-dir, --corpus, ...).
 *
 * An output the user asked for and did not get is a user error, not
 * a warning: a run that exits 0 without its artifacts looks like a
 * success to every script downstream. So a file that cannot be
 * opened or fully written is fatal, and the message names the flag.
 */

#pragma once

#include <string>

namespace xmig {

/**
 * Write `text` to `path` in one piece; an empty path writes nothing.
 * A path that cannot be opened or written is fatal, naming `flag`.
 */
void writeArtifact(const std::string &path, const std::string &text,
                   const char *flag);

} // namespace xmig
