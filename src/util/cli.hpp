// Minimal command-line flag parsing for the bench/example binaries.
//
// All benches share flags like --rows, --scale, --threads, --cache-spec;
// this
// parser supports "--name value", "--name=value" and boolean "--name" forms
// and prints a generated --help.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace spkadd::util {

/// One level of a `--cache-spec` string: "LLC:8M:16" = name:capacity:ways.
struct CacheLevelSpec {
  std::string name;          ///< "L1", "L2", "LLC" (free-form, non-empty)
  std::uint64_t bytes = 0;   ///< capacity; suffixes K/M/G accepted
  int ways = 0;              ///< associativity
  bool operator==(const CacheLevelSpec&) const = default;
};

/// Parse "L1:32K:8,L2:1M:16,LLC:8M:16" into ordered levels. Strict: every
/// level needs all three fields, sizes are from_chars integers with an
/// optional single K/M/G suffix, ways a positive integer, and malformed
/// specs (empty names, zero sizes, trailing junk, empty elements) throw
/// std::invalid_argument. Round-trip: parse(format(x)) == x.
[[nodiscard]] std::vector<CacheLevelSpec> parse_cache_spec(
    const std::string& text);

/// Inverse of parse_cache_spec: canonical "NAME:SIZE:WAYS,..." rendering
/// (sizes use the largest exact K/M/G suffix).
[[nodiscard]] std::string format_cache_spec(
    const std::vector<CacheLevelSpec>& levels);

/// Declarative flag registry + parser.
///
///   CliParser cli("bench_table3");
///   auto& rows = cli.add_int("rows", 1 << 17, "number of matrix rows");
///   cli.parse(argc, argv);           // exits(0) on --help
///   use(*rows)
class CliParser {
 public:
  explicit CliParser(std::string program, std::string description = {});

  /// Register flags; the returned pointer stays valid for the parser's
  /// lifetime and holds the default until parse() overwrites it.
  const std::int64_t* add_int(const std::string& name, std::int64_t def,
                              const std::string& help);
  const double* add_double(const std::string& name, double def,
                           const std::string& help);
  const bool* add_flag(const std::string& name, const std::string& help);
  const std::string* add_string(const std::string& name, std::string def,
                                const std::string& help);
  /// Comma-separated integer list (e.g. `--workers 1,2,4`) — the sweep
  /// axes of the service loadgen. The default is given in the same
  /// comma-separated form; a malformed default throws
  /// std::invalid_argument at registration (a programming error).
  const std::vector<std::int64_t>* add_int_list(const std::string& name,
                                                const std::string& def,
                                                const std::string& help);

  /// Parse argv. Unknown flags are an error (returns false and prints usage);
  /// `--help` prints usage and calls std::exit(0).
  bool parse(int argc, const char* const* argv);

  /// Usage text (also printed by --help).
  [[nodiscard]] std::string usage() const;

 private:
  enum class Kind { Int, Double, Bool, String, IntList };
  struct Flag {
    Kind kind = Kind::Bool;
    std::string help;
    std::int64_t int_value = 0;
    double double_value = 0;
    bool bool_value = false;
    std::string string_value;
    std::vector<std::int64_t> int_list_value;
  };
  bool assign(Flag& flag, const std::string& text);

  std::string program_;
  std::string description_;
  std::map<std::string, Flag> flags_;
  std::vector<std::string> order_;
};

}  // namespace spkadd::util
