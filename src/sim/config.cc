#include "sim/config.hh"

#include <algorithm>

#include "sim/options.hh"

namespace microlib
{

bool
parseScaledU64(const std::string &text, std::uint64_t &out)
{
    std::uint64_t scale = 1;
    switch (text.empty() ? '\0' : text.back()) {
      case 'k': case 'K': scale = 1ull << 10; break;
      case 'm': case 'M': scale = 1ull << 20; break;
      case 'g': case 'G': scale = 1ull << 30; break;
    }
    std::uint64_t v = 0;
    if (!parseCount(text.substr(0, text.size() - (scale != 1)), v, 0,
                    count_max / scale))
        return false;
    out = v * scale;
    return true;
}

bool
parseBoolWord(const std::string &text, bool &out)
{
    if (text == "0" || text == "false" || text == "off") {
        out = false;
        return true;
    }
    if (text == "1" || text == "true" || text == "on") {
        out = true;
        return true;
    }
    return false;
}

void
ParamTable::section(const std::string &title)
{
    _rows.push_back({true, title, ""});
}

void
ParamTable::print(std::ostream &os) const
{
    std::size_t key_width = 0;
    for (const auto &row : _rows)
        if (!row.is_section)
            key_width = std::max(key_width, row.key.size());

    for (const auto &row : _rows) {
        if (row.is_section) {
            os << "-- " << row.key << " --\n";
        } else {
            os << "  " << row.key
               << std::string(key_width - row.key.size() + 2, ' ')
               << row.value << "\n";
        }
    }
}

} // namespace microlib
