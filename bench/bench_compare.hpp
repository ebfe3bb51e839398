#ifndef XFC_BENCH_BENCH_COMPARE_HPP
#define XFC_BENCH_BENCH_COMPARE_HPP

/// \file bench_compare.hpp
/// Bench-regression gate logic: parse wall-time records out of bench JSON
/// artifacts and diff a fresh run against a checked-in baseline with a
/// noise-floor threshold. Pure functions, header-only — the bench_compare
/// binary is a thin main() and test_obs pins the behavior directly.
///
/// Two input shapes are understood, keyed per record:
///   - raw bench_json arrays:        [{"name": "...", "wall_ms": X, ...}]
///   - checked-in BENCH_pr*.json:    {"benches": [{"name": "...",
///     "before_wall_ms": A, "after_wall_ms": B, ...}], ...} — the baseline
///     wall time is `after_wall_ms` (the state the PR shipped in).
/// The parser is a tolerant scanner, not a JSON validator: it collects
/// every innermost object carrying a "name" string plus a wall-time
/// number, which is exactly the record shape both formats share. A
/// baseline may also carry a "gate_baseline" array (the tripwire values
/// the gate compares against); its records win over same-named records
/// elsewhere in the document, wherever the array sits.

#include <cctype>
#include <cstdlib>
#include <iterator>
#include <string>
#include <vector>

namespace xfc::bench {

struct CompareRecord {
  std::string name;
  double wall_ms = 0.0;
};

struct CompareRow {
  std::string name;
  double base_ms = 0.0;
  double fresh_ms = 0.0;
  double ratio = 0.0;  // fresh / base; > 1 is slower
  bool regressed = false;
};

struct CompareResult {
  std::vector<CompareRow> rows;   // one per name present in both inputs
  std::size_t regressions = 0;    // rows over threshold
  std::size_t fresh_only = 0;     // fresh records with no baseline (info)
};

namespace detail {

/// Value of `"key": <number>` inside `text`, or NaN-free `found=false`.
inline bool find_number(const std::string& text, const std::string& key,
                        double* out) {
  const std::string needle = "\"" + key + "\"";
  std::size_t pos = text.find(needle);
  if (pos == std::string::npos) return false;
  pos += needle.size();
  while (pos < text.size() &&
         (text[pos] == ' ' || text[pos] == ':' || text[pos] == '\t'))
    ++pos;
  char* end = nullptr;
  const double v = std::strtod(text.c_str() + pos, &end);
  if (end == text.c_str() + pos) return false;
  *out = v;
  return true;
}

/// Value of `"key": "<string>"` inside `text` (no escape handling: bench
/// record names are identifiers by construction).
inline bool find_string(const std::string& text, const std::string& key,
                        std::string* out) {
  const std::string needle = "\"" + key + "\"";
  std::size_t pos = text.find(needle);
  if (pos == std::string::npos) return false;
  pos += needle.size();
  while (pos < text.size() &&
         (text[pos] == ' ' || text[pos] == ':' || text[pos] == '\t'))
    ++pos;
  if (pos >= text.size() || text[pos] != '"') return false;
  const std::size_t end = text.find('"', pos + 1);
  if (end == std::string::npos) return false;
  *out = text.substr(pos + 1, end - pos - 1);
  return true;
}

}  // namespace detail

/// Every record in `json_text` (either shape above), the "gate_baseline"
/// array's records first. A record needs a "name" and one of
/// "after_wall_ms" (preferred: trajectory baselines) or "wall_ms";
/// value-only records (ratios, byte counts) are skipped.
inline std::vector<CompareRecord> parse_bench_records(
    const std::string& json_text) {
  std::vector<CompareRecord> gate, rest;
  // Scan for innermost objects — records are leaves in both formats.
  bool in_string = false, escaped = false;
  std::vector<std::size_t> stack;       // '{' positions
  std::vector<bool> has_child;          // parallel: saw a nested object
  std::size_t str_start = 0;
  std::string last_str;                 // the most recent string token
  std::size_t last_str_end = 0;         // index of its closing quote
  std::size_t arrays = 0;               // '[' nesting depth
  std::size_t gate_depth = 0;           // depth of "gate_baseline"; 0 = out
  for (std::size_t i = 0; i < json_text.size(); ++i) {
    const char c = json_text[i];
    if (in_string) {
      if (escaped) escaped = false;
      else if (c == '\\') escaped = true;
      else if (c == '"') {
        in_string = false;
        last_str = json_text.substr(str_start, i - str_start);
        last_str_end = i;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
      str_start = i + 1;
    } else if (c == '[') {
      ++arrays;
      // `"gate_baseline" : [` — only separators between key and array.
      const bool keyed =
          last_str == "gate_baseline" &&
          json_text.find_first_not_of(" \t\r\n:", last_str_end + 1) == i;
      if (gate_depth == 0 && keyed) gate_depth = arrays;
    } else if (c == ']') {
      if (arrays == gate_depth) gate_depth = 0;
      if (arrays > 0) --arrays;
    } else if (c == '{') {
      if (!stack.empty()) has_child.back() = true;
      stack.push_back(i);
      has_child.push_back(false);
    } else if (c == '}') {
      if (stack.empty()) continue;
      const std::size_t start = stack.back();
      const bool leaf = !has_child.back();
      stack.pop_back();
      has_child.pop_back();
      if (!leaf) continue;
      const std::string obj = json_text.substr(start, i - start + 1);
      CompareRecord rec;
      if (!detail::find_string(obj, "name", &rec.name)) continue;
      if (!detail::find_number(obj, "after_wall_ms", &rec.wall_ms) &&
          !detail::find_number(obj, "wall_ms", &rec.wall_ms))
        continue;
      (gate_depth != 0 ? gate : rest).push_back(std::move(rec));
    }
  }
  gate.insert(gate.end(), std::make_move_iterator(rest.begin()),
              std::make_move_iterator(rest.end()));
  return gate;
}

/// Diffs `fresh` against `baseline` by record name (first occurrence
/// wins). `threshold` is the regression ratio (1.25 = fail on >25%
/// slower); `min_base_ms` drops records whose baseline is below the noise
/// floor (micro-timings regress by scheduling jitter alone).
inline CompareResult compare_benches(
    const std::vector<CompareRecord>& baseline,
    const std::vector<CompareRecord>& fresh, double threshold,
    double min_base_ms = 0.0) {
  CompareResult result;
  for (const CompareRecord& f : fresh) {
    const CompareRecord* base = nullptr;
    for (const CompareRecord& b : baseline)
      if (b.name == f.name) {
        base = &b;
        break;
      }
    if (base == nullptr) {
      ++result.fresh_only;
      continue;
    }
    if (base->wall_ms <= 0.0 || base->wall_ms < min_base_ms) continue;
    CompareRow row;
    row.name = f.name;
    row.base_ms = base->wall_ms;
    row.fresh_ms = f.wall_ms;
    row.ratio = f.wall_ms / base->wall_ms;
    row.regressed = row.ratio > threshold;
    if (row.regressed) ++result.regressions;
    result.rows.push_back(std::move(row));
  }
  return result;
}

}  // namespace xfc::bench

#endif  // XFC_BENCH_BENCH_COMPARE_HPP
