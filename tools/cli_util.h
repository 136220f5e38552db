// Minimal shared helpers for the command-line tools: flag parsing and
// file slurping. Deliberately dependency-free.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

namespace zipr::cli {

/// Flag-style argument list: positionals plus --key[=value] options. A
/// value is only ever taken from `--key=value`: the word after a bare
/// `--key` is a positional, so check_flags() rejects value-taking flags
/// given bare before any positional count picks a mode.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string a = argv[i];
      if (a.rfind("--", 0) == 0) {
        auto eq = a.find('=');
        if (eq == std::string::npos) {
          flags_.emplace_back(a.substr(2), std::nullopt);
        } else {
          flags_.emplace_back(a.substr(2, eq - 2), a.substr(eq + 1));
        }
      } else {
        positional_.push_back(std::move(a));
      }
    }
  }

  bool has(const std::string& key) const {
    for (const auto& [k, v] : flags_)
      if (k == key) return true;
    return false;
  }

  std::optional<std::string> value(const std::string& key) const {
    for (const auto& [k, v] : flags_)
      if (k == key && v) return v;
    return std::nullopt;
  }

  /// All values given for a repeatable option (--transform=a --transform=b).
  std::vector<std::string> values(const std::string& key) const {
    std::vector<std::string> out;
    for (const auto& [k, v] : flags_)
      if (k == key && v) out.push_back(*v);
    return out;
  }

  // NOTE: there is deliberately no lax value_u64 here; numeric flags go
  // through cli::checked_u64 below so malformed values always die loudly.

  const std::vector<std::string>& positional() const { return positional_; }

  /// Every flag as given: its key, and its value unless it was bare.
  const std::vector<std::pair<std::string, std::optional<std::string>>>& flags() const {
    return flags_;
  }

 private:
  std::vector<std::string> positional_;
  std::vector<std::pair<std::string, std::optional<std::string>>> flags_;
};

inline std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

inline bool write_file(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  return out.good();
}

[[noreturn]] inline void die(const std::string& msg) {
  std::fprintf(stderr, "error: %s\n", msg.c_str());
  std::exit(2);
}

/// Die on the first flag the tool does not know, on a value-taking flag
/// given bare, or on a boolean flag given a value (`--stats=0` must not
/// read as `--stats`). `known` names each flag; a trailing '=' marks one
/// that takes a value ("out=" for --out=<path>), the rest are booleans.
inline void check_flags(const Args& args, const std::vector<std::string>& known) {
  for (const auto& [key, value] : args.flags()) {
    const std::string* match = nullptr;
    for (const auto& k : known)
      if (k == key || k == key + "=") match = &k;
    if (match == nullptr) die("unknown option --" + key);
    if (match->back() == '=' && !value)
      die("--" + key + " requires a value (--" + key + "=...)");
    if (match->back() != '=' && value)
      die("--" + key + " takes no value (got --" + key + "=" + *value + ")");
  }
}

/// Strictly-parsed unsigned decimal flag. Unlike a bare strtoull (which
/// silently yields 0 or a wrapped value), malformed text, trailing
/// garbage, signs, and out-of-range values all die with the offending
/// text, so `--jobs=banana` or `--seed=-1` can never be mistaken for a
/// configuration. A leading zero is not octal and `0x` is not hex:
/// `--seed=010` is seed 10 and `--seed=0x8` is an error. `min` lets flags
/// where zero is meaningless (--shards=0) reject it by name instead of
/// tripping some distant divide or empty-pool hang.
inline std::uint64_t checked_u64(const Args& args, const std::string& key,
                                 std::uint64_t fallback,
                                 std::uint64_t max = UINT64_MAX,
                                 std::uint64_t min = 0) {
  if (!args.has(key)) return fallback;
  auto v = args.value(key);
  if (!v || v->empty()) die("--" + key + " requires a value (--" + key + "=N)");
  const char* s = v->c_str();
  if (!(s[0] >= '0' && s[0] <= '9'))
    die("invalid --" + key + " value '" + *v + "': expected an unsigned integer");
  errno = 0;
  char* end = nullptr;
  unsigned long long parsed = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0')
    die("invalid --" + key + " value '" + *v + "': expected an unsigned integer");
  if (errno == ERANGE || parsed > max)
    die("--" + key + " value '" + *v + "' is out of range (max " + std::to_string(max) +
        ")");
  if (parsed < min)
    die("--" + key + " value '" + *v + "' is out of range (min " + std::to_string(min) +
        ")");
  return parsed;
}

}  // namespace zipr::cli
