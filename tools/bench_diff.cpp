// bench_diff: compares two bench/QoR JSON artifacts and gates regressions.
//
//   bench_diff [options] <baseline.json> <current.json>
//
//   --time-threshold <pct>   allowed relative worsening for "time" records
//                            (default 25; wall clock is noisy)
//   --qor-threshold <pct>    allowed relative worsening for "qor"/"derived"
//                            records (default 0: quality must not worsen)
//   --check                  terse output: only regressions and the verdict
//   --update-baseline        copy <current> over <baseline> and exit 0
//                            (for intentional changes; commit the result)
//
// Reads schema "adsd-bench-v2" (bench/common.hpp BenchReport) and
// "adsd-qor-v1" (support/qor QorRecorder; the finals are flattened into
// must-not-worsen records). Records flagged `valid: false` in either file
// are skipped — that is the 1-CPU caveat machinery: a speedup measured on
// a single-hardware-thread host says nothing. Records present in only one
// file are reported but do not fail the gate (new metrics appear, old ones
// retire, and ISA-specific records are absent on hosts without that ISA);
// baseline records missing from the current report are printed even under
// --check, so a shrinking gate shows in the log. Exit status: 0 = no
// regression, 1 = usage/IO/parse error, 2 = at least one regression.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "support/json.hpp"

namespace {

using adsd::json::Value;

struct Record {
  std::string kind;       // "time" | "qor" | "derived"
  double value = 0.0;
  std::string direction;  // "min" (smaller is better) | "max"
  bool valid = true;
};

using RecordMap = std::map<std::string, Record>;

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    throw std::runtime_error("cannot open '" + path + "'");
  }
  std::ostringstream buf;
  buf << f.rdbuf();
  return buf.str();
}

/// Flattens a schema-v2 bench report into name -> record.
RecordMap load_bench_v2(const Value& root) {
  RecordMap out;
  for (const Value& rec : root.at("records").as_array()) {
    Record r;
    r.kind = rec.at("kind").as_string();
    r.value = rec.at("value").as_number();
    r.direction = rec.at("direction").as_string();
    if (const Value* valid = rec.find("valid")) {
      r.valid = valid->as_bool();
    }
    out.emplace(rec.at("name").as_string(), std::move(r));
  }
  return out;
}

/// Flattens a qor.json document: every Final's med / error rate / LUT bits
/// becomes a must-not-worsen record (fixed-seed quality is deterministic).
RecordMap load_qor_v1(const Value& root) {
  RecordMap out;
  const auto& finals = root.at("finals").as_array();
  for (std::size_t i = 0; i < finals.size(); ++i) {
    const Value& fin = finals[i];
    const std::string prefix =
        "final[" + std::to_string(i) + "]/" + fin.at("stage").as_string();
    auto put = [&](const char* metric, double value) {
      out.emplace(prefix + "/" + metric,
                  Record{"qor", value, "min", true});
    };
    put("med", fin.at("med").as_number());
    put("error_rate", fin.at("error_rate").as_number());
    put("lut_bits", fin.at("lut_bits").as_number());
  }
  return out;
}

RecordMap load(const std::string& path) {
  const Value root = adsd::json::parse(read_file(path));
  const std::string schema =
      root.contains("schema") ? root.at("schema").as_string() : "";
  if (schema == "adsd-bench-v2") {
    return load_bench_v2(root);
  }
  if (schema == "adsd-qor-v1") {
    return load_qor_v1(root);
  }
  throw std::runtime_error("'" + path + "': unsupported schema '" + schema +
                           "' (expected adsd-bench-v2 or adsd-qor-v1)");
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  double time_threshold = 25.0;
  double qor_threshold = 0.0;
  bool check = false;
  bool update_baseline = false;
  std::vector<std::string> files;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&](const std::string& name) -> std::string {
      const auto eq = arg.find('=');
      if (eq != std::string::npos) {
        return arg.substr(eq + 1);
      }
      if (i + 1 >= argc) {
        throw std::runtime_error(name + " needs a value");
      }
      return argv[++i];
    };
    if (arg == "--check") {
      check = true;
    } else if (arg == "--update-baseline") {
      update_baseline = true;
    } else if (arg.rfind("--time-threshold", 0) == 0) {
      time_threshold = std::stod(value_of("--time-threshold"));
    } else if (arg.rfind("--qor-threshold", 0) == 0) {
      qor_threshold = std::stod(value_of("--qor-threshold"));
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "bench_diff: unknown option '" << arg << "'\n";
      return 1;
    } else {
      files.push_back(arg);
    }
  }
  if (files.size() != 2) {
    std::cerr << "usage: bench_diff [--check] [--update-baseline] "
                 "[--time-threshold pct] [--qor-threshold pct] "
                 "<baseline.json> <current.json>\n";
    return 1;
  }
  const std::string& baseline_path = files[0];
  const std::string& current_path = files[1];

  try {
    if (update_baseline) {
      const std::string current = read_file(current_path);
      (void)adsd::json::parse(current);  // refuse to install a broken file
      std::ofstream out(baseline_path, std::ios::binary);
      if (!out) {
        throw std::runtime_error("cannot write '" + baseline_path + "'");
      }
      out << current;
      std::cout << "bench_diff: baseline '" << baseline_path
                << "' updated from '" << current_path << "'\n";
      return 0;
    }

    const RecordMap base = load(baseline_path);
    const RecordMap cur = load(current_path);

    std::size_t compared = 0;
    std::size_t skipped = 0;
    std::size_t only_one = 0;
    std::vector<std::string> regressions;

    if (!check) {
      std::printf("%-44s %12s %12s %9s  %s\n", "metric", "baseline",
                  "current", "delta%", "status");
    }
    for (const auto& [name, b] : base) {
      const auto it = cur.find(name);
      if (it == cur.end()) {
        ++only_one;
        // Printed even under --check, like the invalid skips below: a
        // record that silently stops being produced is coverage lost.
        std::printf("%-44s %12s %12s %9s  %s\n", name.c_str(),
                    fmt(b.value).c_str(), "-", "-", "missing in current");
        continue;
      }
      const Record& c = it->second;
      if (!b.valid || !c.valid) {
        ++skipped;
        // Printed even under --check: a gate that silently drops records
        // flagged invalid on this host (e.g. a missing ISA) looks like
        // full coverage in the CI log when it is not.
        std::printf("%-44s %12s %12s %9s  %s\n", name.c_str(),
                    fmt(b.value).c_str(), fmt(c.value).c_str(), "-",
                    "skipped (invalid on this host)");
        continue;
      }
      ++compared;
      // Signed relative change toward "worse": positive means the metric
      // moved against its improvement direction.
      const double denom = std::max(std::fabs(b.value), 1e-9);
      double worsening = (c.value - b.value) / denom;
      if (b.direction == "max") {
        worsening = -worsening;
      }
      const double threshold_pct =
          b.kind == "time" ? time_threshold : qor_threshold;
      // A hair of slack keeps a 0% threshold from tripping on the last
      // digit of %.17g round-trips.
      const bool regressed = worsening * 100.0 > threshold_pct + 1e-9;
      if (regressed) {
        regressions.push_back(name);
      }
      if (!check || regressed) {
        std::printf("%-44s %12s %12s %+8.2f%%  %s\n", name.c_str(),
                    fmt(b.value).c_str(), fmt(c.value).c_str(),
                    worsening * 100.0,
                    regressed ? "REGRESSION" : "ok");
      }
    }
    for (const auto& [name, c] : cur) {
      if (base.find(name) == base.end()) {
        ++only_one;
        if (!check) {
          std::printf("%-44s %12s %12s %9s  %s\n", name.c_str(), "-",
                      fmt(c.value).c_str(), "-", "missing in baseline");
        }
      }
    }

    std::cout << "bench_diff: " << compared << " compared, " << skipped
              << " skipped (invalid), " << only_one << " unmatched, "
              << regressions.size() << " regression"
              << (regressions.size() == 1 ? "" : "s") << "\n";
    if (!regressions.empty()) {
      std::cerr << "bench_diff: regressions vs '" << baseline_path
                << "' (rerun with --update-baseline if intentional)\n";
      return 2;
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "bench_diff: " << e.what() << "\n";
    return 1;
  }
}
