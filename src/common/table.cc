#include "src/common/table.h"

#include <algorithm>
#include <cinttypes>

namespace spur {

Table::Table(std::string title) : title_(std::move(title)) {}

void
Table::SetHeader(std::vector<std::string> header)
{
    header_ = std::move(header);
}

void
Table::AddRow(std::vector<std::string> row)
{
    if (row.empty()) {
        // An empty row is reserved as the separator marker; represent a
        // deliberately empty data row as one empty cell.
        row.push_back("");
    }
    rows_.push_back(std::move(row));
}

void
Table::AddSeparator()
{
    rows_.emplace_back();
}

void
Table::Print(std::FILE* out) const
{
    // Compute column widths over header and all rows.
    std::vector<size_t> widths;
    auto widen = [&widths](const std::vector<std::string>& row) {
        if (row.size() > widths.size()) {
            widths.resize(row.size(), 0);
        }
        for (size_t i = 0; i < row.size(); ++i) {
            widths[i] = std::max(widths[i], row[i].size());
        }
    };
    widen(header_);
    for (const auto& row : rows_) {
        widen(row);
    }

    size_t total = 0;
    for (size_t w : widths) {
        total += w + 3;
    }
    total = (total >= 2) ? total - 2 : total;

    auto print_rule = [&] {
        std::fprintf(out, "%s\n", std::string(total, '-').c_str());
    };
    auto print_row = [&](const std::vector<std::string>& row) {
        for (size_t i = 0; i < widths.size(); ++i) {
            const std::string& cell = (i < row.size()) ? row[i] : "";
            std::fprintf(out, "%-*s", static_cast<int>(widths[i]),
                         cell.c_str());
            if (i + 1 < widths.size()) {
                std::fprintf(out, " | ");
            }
        }
        std::fprintf(out, "\n");
    };

    if (!title_.empty()) {
        std::fprintf(out, "%s\n", title_.c_str());
    }
    print_rule();
    if (!header_.empty()) {
        print_row(header_);
        print_rule();
    }
    for (const auto& row : rows_) {
        if (row.empty()) {
            print_rule();
        } else {
            print_row(row);
        }
    }
    print_rule();
}

std::string
Table::Num(double value, int decimals)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
    return buf;
}

std::string
Table::Num(uint64_t value)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
    return buf;
}

std::string
Table::Rel(double value)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "(%.2f)", value);
    return buf;
}

std::string
Table::Pct(double fraction, int decimals)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.*f%%", decimals, fraction * 100.0);
    return buf;
}

}  // namespace spur
