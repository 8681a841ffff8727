/**
 * @file
 * Declared settings: one option table for the CLI tools, one reader
 * for the MICROLIB_* environment.
 *
 * A tool declares each flag once, as an OptionRow: its name, its
 * value syntax, one help line and the target it writes. OptionTable
 * does the rest — `--help` generated from the rows (count and
 * seconds rows show their target's default), `--version`, and exit
 * status 2 naming the flag on an unknown flag, a missing value or a
 * rejected value — so usage text, parsing and defaults cannot drift.
 *
 * Numbers go through one strict parser: digits only, no sign, no
 * blanks, no overflow, so `--threads -1` is a usage error instead of
 * 2^32-1 pool threads. The library's numeric and switch MICROLIB_*
 * reads use the same parser; a malformed value warns and falls back
 * to the default instead of being half-read by atoi.
 */

#ifndef MICROLIB_SIM_OPTIONS_HH
#define MICROLIB_SIM_OPTIONS_HH

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace microlib
{

constexpr std::uint64_t count_max =
    std::numeric_limits<std::uint64_t>::max();

/** Parse decimal digits only into [@p min, @p max]. */
bool parseCount(const std::string &text, std::uint64_t &out,
                std::uint64_t min = 0, std::uint64_t max = count_max);

/** Parse finite, non-negative seconds ("30", "0.5", "1e3"). */
bool parseSeconds(const std::string &text, double &out);

/** Split @p text at commas, dropping empty fields. */
std::vector<std::string> splitList(const std::string &text);

/** Environment variable @p name as a count in [0, @p max]; nullopt
 *  when unset or empty, or (with a warning) when malformed. */
std::optional<std::uint64_t> envCount(const char *name,
                                      std::uint64_t max = count_max);

/** Whether switch @p name is on: set, non-empty and not "0". */
bool envFlag(const char *name);

/** How a flag takes its value. */
enum class ValueSyntax
{
    None,     ///< a switch: `--verbose`
    Required, ///< the next argument, whatever it is: `--store PATH`
    Optional, ///< the next argument unless it is a flag; a lone "-"
              ///< is a value: `--report [PATH]`
    Multi,    ///< every argument up to the next flag, at least one:
              ///< `--merge STORE...`
};

/** One declared flag. */
struct OptionRow
{
    /** Write one value ("" for a switch or an omitted optional
     *  value; once per value of a Multi row). Returns "" or why the
     *  value is rejected. */
    using Apply = std::function<std::string(const std::string &)>;

    std::string name;  ///< "--store"
    ValueSyntax syntax = ValueSyntax::None;
    std::string value; ///< placeholder in --help: "PATH"
    std::string help;  ///< one help line
    Apply apply;
    std::string fallback = {}; ///< default shown in --help

    /**
     * A row writing @p target (which must outlive it); its type
     * picks the value syntax: bool = a switch (no @p value);
     * std::string = one value; optional<string> = an optional value
     * ("" if none followed); vector<string> = one or more values;
     * double = seconds; an unsigned integer = a count in [@p min, its
     * max]. --help shows the target's value as the default (strings:
     * if set).
     */
    template <class T>
    static OptionRow
    bind(std::string name, std::string value, std::string help,
         T &target, std::uint64_t min = 0)
    {
        OptionRow row{std::move(name), ValueSyntax::Required,
                      std::move(value), std::move(help), {}};
        if constexpr (std::is_same_v<T, bool>) {
            row.syntax = ValueSyntax::None;
            row.apply = [&target](const std::string &) {
                target = true;
                return std::string();
            };
        } else if constexpr (std::is_same_v<T, std::string> ||
                             std::is_same_v<T,
                                            std::optional<std::string>>) {
            if constexpr (std::is_same_v<T, std::string>) {
                row.fallback = target;
            } else {
                row.syntax = ValueSyntax::Optional;
                row.value = "[" + row.value + "]";
            }
            row.apply = [&target](const std::string &v) {
                target = v;
                return std::string();
            };
        } else if constexpr (std::is_same_v<T, std::vector<std::string>>) {
            row.syntax = ValueSyntax::Multi;
            row.value += "...";
            row.apply = [&target](const std::string &v) {
                target.push_back(v);
                return std::string();
            };
        } else if constexpr (std::is_same_v<T, double>) {
            std::ostringstream fallback;
            fallback << target;
            row.fallback = fallback.str();
            row.apply = [&target](const std::string &v) {
                return parseSeconds(v, target)
                           ? std::string()
                           : "wants seconds >= 0, got '" + v + "'";
            };
        } else {
            static_assert(std::is_unsigned_v<T>);
            row.fallback = std::to_string(target);
            row.apply = [&target, min](const std::string &v) {
                constexpr std::uint64_t max =
                    std::numeric_limits<T>::max();
                std::uint64_t n = 0;
                if (!parseCount(v, n, min, max))
                    return "wants an integer in [" +
                           std::to_string(min) + ", " +
                           std::to_string(max) + "], got '" + v + "'";
                target = static_cast<T>(n);
                return std::string();
            };
        }
        return row;
    }

    /** A value out of @p choices. */
    static OptionRow choice(std::string name,
                            std::vector<std::string> choices,
                            std::string help, std::string &target);
};

/** Name, value placeholder and help line of a flag several tools
 *  share; each tool binds it to its own target. */
struct SharedFlag
{
    const char *name, *value, *help;
};

namespace shared_flags
{

inline constexpr SharedFlag store{
    "--store", "PATH",
    "append-only result store; finished runs persist, reruns dedup "
    "against it"};
inline constexpr SharedFlag progress{"--progress", "PATH",
                                     "JSONL progress event stream"};
inline constexpr SharedFlag trace_dir{
    "--trace-dir", "DIR",
    "persistent trace arena shared by runs, shards and workers "
    "(default: MICROLIB_TRACE_DIR)"};
inline constexpr SharedFlag threads{
    "--threads", "N",
    "engine worker threads; 0 = MICROLIB_THREADS or hardware"};
inline constexpr SharedFlag shards{
    "--shards", "N", "worker processes for --backend process"};
inline constexpr SharedFlag heartbeat_timeout{
    "--heartbeat-timeout", "SEC",
    "cut a worker silent for SEC seconds and retry its work (above "
    "the longest task; 0 = off)"};
inline constexpr SharedFlag retries{
    "--retries", "N", "restarts per shard worker before the sweep fails"};
inline constexpr SharedFlag strikes{
    "--strikes", "K",
    "failures blamed on one task before it is quarantined (cells "
    "FAULT, exit 3); 0 = never"};
inline constexpr SharedFlag report{
    "--report", "PATH",
    "write the report to PATH (stdout if omitted or '-')"};
inline constexpr SharedFlag verbose{"--verbose", "",
                                    "log each finished run or probe"};

} // namespace shared_flags

/** Run @p write on where a `--report [PATH]` value points: stdout for
 *  "" or "-", else PATH (announced on stdout). False, with a message,
 *  when PATH cannot be opened. */
bool emitReport(const std::string &path,
                const std::function<void(std::FILE *)> &write);

/** A tool's flags, in --help order. */
class OptionTable
{
  public:
    /** @p synopsis follows "usage: <tool> "; @p footer closes
     *  --help. */
    OptionTable(std::string tool, std::string synopsis,
                std::string footer)
        : _tool(std::move(tool)), _synopsis(std::move(synopsis)),
          _footer(std::move(footer))
    {
    }

    /** Start a --help section headed @p title. */
    OptionTable &
    section(std::string title)
    {
        _sections.emplace_back(_rows.size(), std::move(title));
        return *this;
    }

    OptionTable &
    add(OptionRow row)
    {
        _rows.push_back(std::move(row));
        return *this;
    }

    /** Declare OptionRow::bind(@p name, ...). */
    template <class T>
    OptionTable &
    add(std::string name, std::string value, std::string help,
        T &target, std::uint64_t min = 0)
    {
        return add(OptionRow::bind(std::move(name), std::move(value),
                                   std::move(help), target, min));
    }

    /** Declare a shared @p flag writing @p target. */
    template <class T>
    OptionTable &
    add(const SharedFlag &flag, T &target)
    {
        return add(flag.name, flag.value, flag.help, target);
    }

    /**
     * Apply @p argv[1..] to the rows' targets. Returns nullopt when
     * the tool should run on, else the status to exit with: 0 after
     * --help/-h or --version (printed to @p out), 2 after a usage
     * error (reported to @p err).
     */
    std::optional<int> parse(int argc, const char *const *argv,
                             std::ostream &out = std::cout,
                             std::ostream &err = std::cerr);

    /** Whether the last parse() met flag @p name. */
    bool
    given(const std::string &name) const
    {
        return std::find(_given.begin(), _given.end(), name) !=
               _given.end();
    }

    /** The generated --help text. */
    std::string help() const;

  private:
    std::string _tool, _synopsis, _footer;
    std::vector<OptionRow> _rows;
    std::vector<std::string> _given;
    /** (index of the section's first row, title). */
    std::vector<std::pair<std::size_t, std::string>> _sections;
};

} // namespace microlib

#endif // MICROLIB_SIM_OPTIONS_HH
