/**
 * @file
 * Aligned ASCII table output, used by the bench harnesses to print the
 * paper's tables (their --json is the machine-readable form).
 */
#ifndef SPUR_COMMON_TABLE_H_
#define SPUR_COMMON_TABLE_H_

#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

namespace spur {

/**
 * Accumulates rows of string cells and renders them with aligned columns.
 *
 * Example:
 * @code
 *   Table t("Table 3.3: Event Frequencies");
 *   t.SetHeader({"Workload", "Size", "N_ds"});
 *   t.AddRow({"SLC", "5", "2349"});
 *   t.Print(stdout);
 * @endcode
 */
class Table
{
  public:
    explicit Table(std::string title);

    /** Sets the column headers (defines the column count). */
    void SetHeader(std::vector<std::string> header);

    /** Appends a data row; short rows are padded with empty cells. */
    void AddRow(std::vector<std::string> row);

    /** Appends a horizontal separator line. */
    void AddSeparator();

    /** Renders the table with column alignment to @p out. */
    void Print(std::FILE* out) const;

    /** Number of data rows added so far. */
    size_t NumRows() const { return rows_.size(); }

    /** Formats a double with @p decimals digits after the point. */
    static std::string Num(double value, int decimals = 2);

    /** Formats an integer count. */
    static std::string Num(uint64_t value);

    /** Formats a ratio as "(1.23)" like the paper's relative columns. */
    static std::string Rel(double value);

    /** Formats a percentage like "18%". */
    static std::string Pct(double fraction, int decimals = 0);

  private:
    std::string title_;
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;  ///< Empty row = separator.
};

}  // namespace spur

#endif  // SPUR_COMMON_TABLE_H_
