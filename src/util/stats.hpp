/**
 * @file
 * Report formatting.
 *
 * The paper reports most results as "instructions per event" (Table 2)
 * or as miss-ratio curves (Figures 4-5). This module provides the
 * ASCII table / CSV series formatters the bench harnesses use to
 * print paper-shaped output.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace xmig {

/**
 * Format "instructions per event" the way Table 2 does: an integer
 * when small, otherwise an abbreviated power-of-ten form (e.g. 2.2e6).
 * Returns "inf" when the event never occurred.
 */
std::string perEvent(uint64_t instructions, uint64_t events);

/** Format an event frequency such as 0.0134 with 4 decimals. */
std::string frequency(uint64_t events, uint64_t total);

/** Format a byte count with the paper's axis labels: 16k, 64k, 1M, ... */
std::string sizeLabel(uint64_t bytes);

/** Format a ratio like Table 2's L2-miss reduction column (2 decimals). */
std::string ratio2(double r);

/**
 * Quote a CSV cell per RFC 4180 when it needs it: cells containing a
 * comma, double quote, whitespace or newline are wrapped in double
 * quotes with inner quotes doubled, so emitted series load cleanly in
 * pandas / gnuplot. Clean cells pass through untouched.
 */
std::string csvQuote(const std::string &cell);

/**
 * Column-aligned ASCII table writer.
 *
 * Collects rows of strings and prints them with per-column widths, a
 * header rule, and an optional title; the bench binaries use it to
 * reproduce the paper's tables row for row.
 */
class AsciiTable
{
  public:
    explicit AsciiTable(std::vector<std::string> header);

    /** Append one row; must have as many cells as the header. */
    void addRow(std::vector<std::string> row);

    /** Append a full-width section label row (e.g. "SPEC2000"). */
    void addSection(std::string label);

    /** Render the table to a string. */
    std::string render(const std::string &title = "") const;

  private:
    struct Row
    {
        bool section = false;
        std::vector<std::string> cells;
    };

    std::vector<std::string> header_;
    std::vector<Row> rows_;
};

/**
 * (x, y...) series writer for figure reproduction.
 *
 * Prints one line per x value with all series values, plus a header
 * naming each series: CSV with every cell quoted/escaped as needed
 * (csvQuote), ready for pandas/gnuplot and readable inline.
 */
class SeriesWriter
{
  public:
    SeriesWriter(std::string x_name, std::vector<std::string> series_names);

    void addPoint(const std::string &x, const std::vector<double> &ys);

    /**
     * Render with an optional leading `# title` comment line; without
     * a title the output is plain CSV.
     */
    std::string render(const std::string &title = "") const;

  private:
    struct Point
    {
        std::string x;
        std::vector<double> ys;
    };

    std::string xName_;
    std::vector<std::string> seriesNames_;
    std::vector<Point> points_;
};

} // namespace xmig
