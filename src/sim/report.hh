/**
 * @file
 * ASCII report tables for the benchmark harnesses.
 *
 * Each bench binary regenerates one table or figure of the paper; the
 * Table class renders the rows/series with aligned columns so output
 * can be compared against the published graphs by eye or by script.
 */

#ifndef MICROLIB_SIM_REPORT_HH
#define MICROLIB_SIM_REPORT_HH

#include <ostream>
#include <string>
#include <vector>

namespace microlib
{

/** Column-aligned ASCII table with a title line. */
class Table
{
  public:
    explicit Table(std::string title) : _title(std::move(title)) {}

    /** Set the header row. Fixes the column count. */
    void header(std::vector<std::string> cols);

    /** Append a fully formatted row. Must match the header width. */
    void row(std::vector<std::string> cells);

    /** Convenience: label + numeric cells with fixed precision. */
    void rowNumeric(const std::string &label,
                    const std::vector<double> &values, int precision = 3);

    void print(std::ostream &os) const;

    /** The rendered table as a string — for callers writing through
     *  a FILE* or comparing reports byte-for-byte. */
    std::string str() const;

    std::size_t rows() const { return _rows.size(); }

    /** Format a double with fixed precision. */
    static std::string num(double v, int precision = 3);

  private:
    std::string _title;
    std::vector<std::string> _header;
    std::vector<std::vector<std::string>> _rows;
};

/**
 * Banner printed at the top of every bench binary: experiment id,
 * paper reference, and what to look for.
 */
void printExperimentBanner(std::ostream &os, const std::string &id,
                           const std::string &claim);

} // namespace microlib

#endif // MICROLIB_SIM_REPORT_HH
