#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/contracts.hpp"

namespace xmig {

std::string
perEvent(uint64_t instructions, uint64_t events)
{
    // 0/0 is "no instructions, no events" — report 0, not infinity;
    // a genuine never-occurred event over a real run stays "inf".
    if (events == 0)
        return instructions == 0 ? "0" : "inf";
    const double per = static_cast<double>(instructions) /
                       static_cast<double>(events);
    char buf[32];
    // %.0f rounds, so switch to the abbreviated form at the value
    // that *rounds* to 100000 — otherwise 99999.7 prints as a
    // six-digit "100000" while 100000.0 prints as "1.0e5".
    if (per < 99999.5) {
        std::snprintf(buf, sizeof(buf), "%.0f", per);
    } else {
        int exp = static_cast<int>(std::floor(std::log10(per)));
        double mant = per / std::pow(10.0, exp);
        // %.1f rounds 9.95+ up to "10.0"; carry into the exponent so
        // 9.96e5 prints as 1.0e6, never 10.0e5.
        if (mant >= 9.95) {
            mant /= 10.0;
            ++exp;
        }
        std::snprintf(buf, sizeof(buf), "%.1fe%d", mant, exp);
    }
    return buf;
}

std::string
frequency(uint64_t events, uint64_t total)
{
    char buf[32];
    const double f = total == 0
        ? 0.0
        : static_cast<double>(events) / static_cast<double>(total);
    std::snprintf(buf, sizeof(buf), "%.4f", f);
    return buf;
}

std::string
sizeLabel(uint64_t bytes)
{
    char buf[32];
    if (bytes >= (uint64_t(1) << 30) && bytes % (uint64_t(1) << 30) == 0)
        std::snprintf(buf, sizeof(buf), "%lluG",
                      (unsigned long long)(bytes >> 30));
    else if (bytes >= (uint64_t(1) << 20) && bytes % (uint64_t(1) << 20) == 0)
        std::snprintf(buf, sizeof(buf), "%lluM",
                      (unsigned long long)(bytes >> 20));
    else if (bytes >= 1024 && bytes % 1024 == 0)
        std::snprintf(buf, sizeof(buf), "%lluk",
                      (unsigned long long)(bytes >> 10));
    else
        std::snprintf(buf, sizeof(buf), "%llu",
                      (unsigned long long)bytes);
    return buf;
}

std::string
ratio2(double r)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f", r);
    return buf;
}

std::string
csvQuote(const std::string &cell)
{
    const bool needs_quoting =
        cell.find_first_of(",\" \t\n\r") != std::string::npos;
    if (!needs_quoting)
        return cell;
    std::string out;
    out.reserve(cell.size() + 2);
    out += '"';
    for (const char c : cell) {
        if (c == '"')
            out += '"'; // RFC 4180: double the inner quote
        out += c;
    }
    out += '"';
    return out;
}

AsciiTable::AsciiTable(std::vector<std::string> header)
    : header_(std::move(header))
{
}

void
AsciiTable::addRow(std::vector<std::string> row)
{
    XMIG_ASSERT(row.size() == header_.size(),
                "row has %zu cells, header has %zu",
                row.size(), header_.size());
    rows_.push_back({false, std::move(row)});
}

void
AsciiTable::addSection(std::string label)
{
    rows_.push_back({true, {std::move(label)}});
}

std::string
AsciiTable::render(const std::string &title) const
{
    std::vector<size_t> width(header_.size());
    for (size_t c = 0; c < header_.size(); ++c)
        width[c] = header_[c].size();
    for (const auto &row : rows_) {
        if (row.section)
            continue;
        for (size_t c = 0; c < row.cells.size(); ++c)
            width[c] = std::max(width[c], row.cells[c].size());
    }

    auto emit_row = [&](std::string &out,
                        const std::vector<std::string> &cells) {
        for (size_t c = 0; c < cells.size(); ++c) {
            // Left-align the first column (names), right-align numbers.
            const std::string &cell = cells[c];
            if (c == 0) {
                out += cell;
                out.append(width[c] - cell.size(), ' ');
            } else {
                out.append(width[c] - cell.size(), ' ');
                out += cell;
            }
            out += (c + 1 == cells.size()) ? "\n" : "  ";
        }
    };

    std::string out;
    if (!title.empty()) {
        out += title;
        out += "\n";
    }
    emit_row(out, header_);
    size_t total = 0;
    for (size_t c = 0; c < width.size(); ++c)
        total += width[c] + (c + 1 == width.size() ? 0 : 2);
    out.append(total, '-');
    out += "\n";
    for (const auto &row : rows_) {
        if (row.section) {
            out += "-- " + row.cells[0] + "\n";
        } else {
            emit_row(out, row.cells);
        }
    }
    return out;
}

SeriesWriter::SeriesWriter(std::string x_name,
                           std::vector<std::string> series_names)
    : xName_(std::move(x_name)),
      seriesNames_(std::move(series_names))
{
}

void
SeriesWriter::addPoint(const std::string &x, const std::vector<double> &ys)
{
    XMIG_ASSERT(ys.size() == seriesNames_.size(),
                "point has %zu series, expected %zu",
                ys.size(), seriesNames_.size());
    points_.push_back({x, ys});
}

std::string
SeriesWriter::render(const std::string &title) const
{
    std::string out;
    if (!title.empty()) {
        out += "# " + title + "\n";
    }
    out += csvQuote(xName_);
    for (const auto &name : seriesNames_) {
        out += ',';
        out += csvQuote(name);
    }
    out += "\n";
    char buf[32];
    for (const auto &p : points_) {
        out += csvQuote(p.x);
        for (double y : p.ys) {
            std::snprintf(buf, sizeof(buf), "%.6g", y);
            out += ",";
            out += buf;
        }
        out += "\n";
    }
    return out;
}

} // namespace xmig
