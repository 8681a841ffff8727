#include "sim/options.hh"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "core/exit_codes.hh"
#include "sim/logging.hh"
#include "sim/version.hh"

namespace microlib
{

bool
parseCount(const std::string &text, std::uint64_t &out,
           std::uint64_t min, std::uint64_t max)
{
    std::uint64_t v = 0;
    for (const char c : text) {
        const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
        // Not a digit, or v * 10 + digit > max (without overflowing).
        if (c < '0' || c > '9' || digit > max ||
            v > (max - digit) / 10)
            return false;
        v = v * 10 + digit;
    }
    if (text.empty() || v < min)
        return false;
    out = v;
    return true;
}

bool
parseSeconds(const std::string &text, double &out)
{
    // A leading digit or '.' rules out signs, blanks, inf and nan.
    if (text.empty() || !((text[0] >= '0' && text[0] <= '9') ||
                          text[0] == '.'))
        return false;
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (*end != '\0' || !std::isfinite(v))
        return false;
    out = v;
    return true;
}

std::vector<std::string>
splitList(const std::string &text)
{
    std::vector<std::string> out;
    std::istringstream in(text);
    for (std::string field; std::getline(in, field, ',');)
        if (!field.empty())
            out.push_back(field);
    return out;
}

std::optional<std::uint64_t>
envCount(const char *name, std::uint64_t max)
{
    const char *env = std::getenv(name);
    std::uint64_t v = 0;
    if (!env || !*env)
        return std::nullopt;
    if (parseCount(env, v, 0, max))
        return v;
    warn("ignoring malformed ", name, "=", env,
         " (want an integer in [0, ", max, "])");
    return std::nullopt;
}

bool
envFlag(const char *name)
{
    const char *env = std::getenv(name);
    return env && *env && std::strcmp(env, "0") != 0;
}

bool
emitReport(const std::string &path,
           const std::function<void(std::FILE *)> &write)
{
    if (path.empty() || path == "-") {
        write(stdout);
        return true;
    }
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return false;
    }
    write(f);
    std::fclose(f);
    std::printf("report written to %s\n", path.c_str());
    return true;
}

OptionRow
OptionRow::choice(std::string name, std::vector<std::string> choices,
                  std::string help, std::string &target)
{
    std::string value;
    for (const auto &c : choices)
        value += (value.empty() ? "" : "|") + c;
    return {std::move(name), ValueSyntax::Required, value,
            std::move(help),
            [&target, choices, value](const std::string &v) {
                if (std::find(choices.begin(), choices.end(), v) ==
                    choices.end())
                    return "wants " + value + ", got '" + v + "'";
                target = v;
                return std::string();
            },
            target};
}

std::optional<int>
OptionTable::parse(int argc, const char *const *argv, std::ostream &out,
                   std::ostream &err)
{
    auto usageError = [&](const std::string &msg) {
        err << msg << " (see " << _tool << " --help)\n";
        return std::optional<int>(exit_usage);
    };
    _given.clear();
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            out << help();
            return exit_ok;
        }
        if (arg == "--version") {
            out << versionString(_tool.c_str()) << '\n';
            return exit_ok;
        }
        if (_operands && arg[0] != '-') {
            if (const std::string why = _operands(arg); !why.empty())
                return usageError(why);
            continue;
        }
        const auto row = std::find_if(
            _rows.begin(), _rows.end(),
            [&arg](const OptionRow &r) { return r.name == arg; });
        if (row == _rows.end())
            return usageError("unknown flag: " + arg);
        _given.push_back(arg);

        // Optional and multi values end at the next flag; a lone "-"
        // is the explicit-stdout spelling of an optional path.
        auto nextIsValue = [&] {
            return i + 1 < argc &&
                   (argv[i + 1][0] != '-' ||
                    (row->syntax == ValueSyntax::Optional &&
                     std::strcmp(argv[i + 1], "-") == 0));
        };
        std::vector<std::string> values;
        if (row->syntax == ValueSyntax::None)
            values.emplace_back();
        else if (row->syntax == ValueSyntax::Required && i + 1 < argc)
            values.emplace_back(argv[++i]);
        else if (row->syntax == ValueSyntax::Optional)
            values.emplace_back(nextIsValue() ? argv[++i] : "");
        while (row->syntax == ValueSyntax::Multi && nextIsValue())
            values.emplace_back(argv[++i]);
        if (values.empty())
            return usageError(arg + " needs a value");
        for (const std::string &v : values)
            if (const std::string why = row->apply(v); !why.empty())
                return usageError(arg + ": " + why);
    }
    return std::nullopt;
}

std::string
OptionTable::help() const
{
    std::string text = "usage: " + _tool + " " + _synopsis + "\n";
    // "  --flag VALUE", then the help words from column 26, wrapped
    // at 79.
    auto line = [&text](const std::string &left,
                        const std::string &help) {
        constexpr std::size_t column = 26, width = 79;
        text += "  " + left;
        std::size_t at = 2 + left.size();
        if (at >= column) {
            text += "\n";
            at = 0;
        }
        std::istringstream words(help);
        for (std::string w; words >> w;) {
            if (at > column && at + 1 + w.size() > width) {
                text += "\n";
                at = 0;
            }
            text += at < column ? std::string(column - at, ' ') : " ";
            at = std::max(at + 1, column) + w.size();
            text += w;
        }
        text += "\n";
    };
    auto section = _sections.begin();
    for (std::size_t i = 0; i < _rows.size(); ++i) {
        for (; section != _sections.end() && section->first == i;
             ++section)
            text += "\n" + section->second + "\n";
        const OptionRow &row = _rows[i];
        line(row.value.empty() ? row.name : row.name + " " + row.value,
             row.fallback.empty()
                 ? row.help
                 : row.help + " (default " + row.fallback + ")");
    }
    text += "\n";
    line("-h, --help", "print this help and exit");
    line("--version", "print version + schema tuple and exit");
    return text + "\n" + _footer + "\n";
}

} // namespace microlib
