#include "sim/report.hh"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "sim/logging.hh"

namespace microlib
{

void
Table::header(std::vector<std::string> cols)
{
    _header = std::move(cols);
}

void
Table::row(std::vector<std::string> cells)
{
    if (!_header.empty() && cells.size() != _header.size())
        panic("table '", _title, "': row width ", cells.size(),
              " != header width ", _header.size());
    _rows.push_back(std::move(cells));
}

std::string
Table::num(double v, int precision)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << v;
    return os.str();
}

void
Table::rowNumeric(const std::string &label,
                  const std::vector<double> &values, int precision)
{
    std::vector<std::string> cells;
    cells.push_back(label);
    for (double v : values)
        cells.push_back(num(v, precision));
    row(std::move(cells));
}

void
Table::print(std::ostream &os) const
{
    std::vector<std::size_t> widths;
    auto grow = [&](const std::vector<std::string> &cells) {
        if (widths.size() < cells.size())
            widths.resize(cells.size(), 0);
        for (std::size_t i = 0; i < cells.size(); ++i)
            widths[i] = std::max(widths[i], cells[i].size());
    };
    grow(_header);
    for (const auto &r : _rows)
        grow(r);

    os << "\n== " << _title << " ==\n";
    auto emit = [&](const std::vector<std::string> &cells) {
        for (std::size_t i = 0; i < cells.size(); ++i) {
            os << (i == 0 ? "" : "  ");
            // Left-align the first (label) column, right-align numbers.
            if (i == 0)
                os << std::left;
            else
                os << std::right;
            os << std::setw(static_cast<int>(widths[i])) << cells[i];
        }
        os << "\n";
    };
    if (!_header.empty()) {
        emit(_header);
        std::size_t total = 0;
        for (std::size_t i = 0; i < widths.size(); ++i)
            total += widths[i] + (i ? 2 : 0);
        os << std::string(total, '-') << "\n";
    }
    for (const auto &r : _rows)
        emit(r);
}

std::string
Table::str() const
{
    std::ostringstream os;
    print(os);
    return os.str();
}

void
printExperimentBanner(std::ostream &os, const std::string &id,
                      const std::string &claim)
{
    os << std::string(72, '=') << "\n";
    os << "MicroLib reproduction | " << id << "\n";
    os << "Paper claim: " << claim << "\n";
    os << std::string(72, '=') << "\n";
}

} // namespace microlib
