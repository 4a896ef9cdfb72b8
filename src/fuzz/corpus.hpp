/**
 * @file
 * xmig-storm persistent corpus: the on-disk form of the cases a
 * guided campaign found coverage-novel.
 *
 * A campaign given a corpus directory (CampaignConfig::corpusDir,
 * `xmig_fuzz --guided --corpus DIR`) is what a nightly fuzz farm
 * runs: it replays the entries a previous run left behind, warming
 * the coverage map and the guided generator, then spends the rest of
 * its case count on guided batches and persists every coverage-novel
 * case back under a content-addressed name (FNV-1a of its canonical
 * body, so re-finding the same case is a no-op and two racing runs
 * cannot corrupt each other's entries).
 *
 * Determinism: entries load in sorted name order, so a campaign over
 * a corpus is a pure function of (source seed, config, directory
 * contents).
 */

#pragma once

#include <set>
#include <string>
#include <vector>

#include "fuzz/property_harness.hpp"

namespace xmig {

/**
 * Content-addressed corpus entry name for a case: "case-<16 hex>.txt"
 * over the canonical body renderCorpusEntry() writes.
 */
std::string corpusEntryName(const FuzzCase &c);

/** Canonical corpus file body (key=value lines). */
std::string renderCorpusEntry(const FuzzCase &c);

/**
 * Parse a corpus file body back into a case. Returns false (and
 * leaves `out` untouched) on malformed bodies — a campaign skips
 * them with a warning instead of dying on a corrupt corpus.
 */
bool parseCorpusEntry(const std::string &body, FuzzCase *out);

/** Create directory `path` if it does not exist; fatal on failure. */
void ensureDir(const std::string &path);

/**
 * Load `dir`'s entries in sorted name order, creating the directory
 * if it is missing. Corrupt entries are skipped with a warning.
 * `names` receives every entry name on disk, corrupt ones included.
 */
std::vector<FuzzCase> loadCorpus(const std::string &dir,
                                 std::set<std::string> *names);

} // namespace xmig
