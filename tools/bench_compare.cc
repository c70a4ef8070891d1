// bench_compare: diff two BENCH_*.json envelopes and fail on regressions.
//
//   $ bench_compare baseline.json candidate.json [options]
//
// Each input is either a raw envelope (the {...} document emitted by
// bench::EmitMetricsBlock) or a full bench stdout log containing a
// "BENCH_<name>.json: {...}" line (the last such line wins). Envelopes
// carry their own identity — schema_version, bench name, and the config
// key/value list — and the tool refuses to compare two runs whose identity
// differs: a diff between different workloads is noise, not a regression.
//
// Comparison model: every counter, gauge, and histogram of the *baseline*
// must be present in the candidate and must not grow beyond its tolerance
// (counters/gauges are work measures; less is better). Answer counters
// (flix.query.results_emitted, entries_processed, point_count) count what
// the queries returned, so they gate both ways: a drop beyond tolerance is
// a regression too (answers went missing). Histograms compare
// their count with the count tolerance and their mean with the time
// tolerance when the name ends in "_ns". Metrics only the candidate has are
// reported but never fail the run (new instrumentation must not break CI).
//
// Options:
//   --tol FRAC         tolerance for counters/gauges/histogram counts
//                      (default 0.02 — deterministic work counters)
//   --time-tol FRAC    tolerance for nanosecond means (default 1.0; wall
//                      times on shared CI machines are very noisy)
//   --metric-tol NAME=FRAC   per-metric override (repeatable)
//   --ignore NAME      skip a metric entirely (repeatable)
//
// Exit codes: 0 = within tolerance, 1 = regression, 2 = usage / refusal.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/export.h"
#include "obs/json_util.h"
#include "obs/metrics.h"

namespace {

using flix::obs::HistogramStats;
using flix::obs::MetricsSnapshot;

struct Envelope {
  uint64_t schema_version = 0;
  std::string bench;
  std::map<std::string, std::string> config;
  MetricsSnapshot metrics;
};

// Extracts the JSON object starting at `start` (which must be '{'),
// honoring nested braces and string literals.
bool ExtractObject(std::string_view text, size_t start, std::string* out) {
  if (start >= text.size() || text[start] != '{') return false;
  int depth = 0;
  bool in_string = false;
  for (size_t i = start; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      ++depth;
    } else if (c == '}') {
      if (--depth == 0) {
        *out = std::string(text.substr(start, i - start + 1));
        return true;
      }
    }
  }
  return false;
}

// Pulls the envelope document out of `content`: either the whole file is
// the envelope, or the last "BENCH_<name>.json: " line carries it.
bool FindEnvelopeText(const std::string& content, std::string* out) {
  size_t last = std::string::npos;
  size_t pos = 0;
  while ((pos = content.find("BENCH_", pos)) != std::string::npos) {
    const size_t colon = content.find(".json: ", pos);
    if (colon != std::string::npos) last = colon + std::strlen(".json: ");
    pos += 6;
  }
  if (last != std::string::npos) return ExtractObject(content, last, out);
  const size_t brace = content.find('{');
  if (brace == std::string::npos) return false;
  return ExtractObject(content, brace, out);
}

bool ParseEnvelope(const std::string& text, Envelope* env, std::string* error) {
  // The metrics sub-document goes to obs::FromJson verbatim; everything
  // before it is the fixed-order identity header EmitMetricsBlock writes.
  const size_t metrics_key = text.find("\"metrics\":");
  if (metrics_key == std::string::npos) {
    *error = "no \"metrics\" key (schema_version 1 block? re-run the bench)";
    return false;
  }
  std::string metrics_json;
  if (!ExtractObject(text, text.find('{', metrics_key), &metrics_json)) {
    *error = "malformed \"metrics\" object";
    return false;
  }
  if (!flix::obs::FromJson(metrics_json, &env->metrics)) {
    *error = "metrics snapshot failed to parse";
    return false;
  }

  flix::obs::jsonutil::JsonCursor cursor(
      std::string_view(text).substr(0, metrics_key));
  std::string key;
  if (!cursor.Consume('{') || !cursor.ReadString(&key) ||
      key != "schema_version" || !cursor.Consume(':') ||
      !cursor.ReadU64(&env->schema_version)) {
    *error = "missing leading \"schema_version\"";
    return false;
  }
  if (!cursor.Consume(',') || !cursor.ReadString(&key) || key != "bench" ||
      !cursor.Consume(':') || !cursor.ReadString(&env->bench)) {
    *error = "missing \"bench\" name";
    return false;
  }
  if (!cursor.Consume(',') || !cursor.ReadString(&key) || key != "config" ||
      !cursor.Consume(':') || !cursor.Consume('{')) {
    *error = "missing \"config\" object";
    return false;
  }
  if (!cursor.Consume('}')) {
    do {
      std::string value;
      if (!cursor.ReadString(&key) || !cursor.Consume(':') ||
          !cursor.ReadString(&value)) {
        *error = "malformed \"config\" entry";
        return false;
      }
      env->config[key] = value;
    } while (cursor.Consume(','));
    if (!cursor.Consume('}')) {
      *error = "unterminated \"config\" object";
      return false;
    }
  }
  return true;
}

bool LoadEnvelope(const char* path, Envelope* env) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "bench_compare: cannot read %s\n", path);
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string text;
  if (!FindEnvelopeText(buffer.str(), &text)) {
    std::fprintf(stderr, "bench_compare: %s: no BENCH_*.json envelope found\n",
                 path);
    return false;
  }
  std::string error;
  if (!ParseEnvelope(text, env, &error)) {
    std::fprintf(stderr, "bench_compare: %s: %s\n", path, error.c_str());
    return false;
  }
  if (env->schema_version != 2) {
    std::fprintf(stderr,
                 "bench_compare: %s: unsupported schema_version %llu "
                 "(expected 2)\n",
                 path, static_cast<unsigned long long>(env->schema_version));
    return false;
  }
  return true;
}

struct Options {
  double tol = 0.02;
  double time_tol = 1.0;
  std::map<std::string, double> metric_tol;
  std::set<std::string> ignore;
};

bool IsTimeMetric(const std::string& name) {
  return name.size() >= 3 && name.compare(name.size() - 3, 3, "_ns") == 0;
}

bool IsAnswerCounter(const std::string& name) {
  return name == "flix.query.results_emitted" ||
         name == "flix.query.entries_processed" ||
         name == "flix.query.point_count";
}

double ToleranceFor(const Options& opts, const std::string& name,
                    bool time_scale) {
  const auto it = opts.metric_tol.find(name);
  if (it != opts.metric_tol.end()) return it->second;
  return time_scale ? opts.time_tol : opts.tol;
}

class Comparison {
 public:
  explicit Comparison(const Options& opts) : opts_(opts) {}

  // Flags `name` when the candidate exceeds baseline * (1 + tolerance), or,
  // for an answer counter, falls below baseline / (1 + tolerance).
  // Baselines of zero only pass a zero candidate when work is counted
  // (relative tolerance has no meaning at zero).
  void Compare(const std::string& name, double base, double cand,
               bool time_scale) {
    if (opts_.ignore.count(name) != 0) return;
    const double tol = ToleranceFor(opts_, name, time_scale);
    const double limit = base * (1.0 + tol);
    if (cand > limit && cand - base > 1e-9) {
      if (base == 0 && !time_scale && cand <= tol * 100) {
        // Tiny absolute drift on a zero baseline (e.g. one extra cache
        // miss): report, don't fail.
        Note(name, base, cand);
        return;
      }
      std::printf("REGRESSION %-44s %14.6g -> %14.6g (+%.1f%%, tol %.0f%%)\n",
                  name.c_str(), base, cand,
                  base > 0 ? (cand / base - 1.0) * 100 : 100.0, tol * 100);
      ++regressions_;
    } else if (base > limit_down(cand, tol) && base - cand > 1e-9) {
      if (IsAnswerCounter(name)) {
        std::printf(
            "REGRESSION %-44s %14.6g -> %14.6g (-%.1f%%, tol %.0f%%, answer "
            "counter)\n",
            name.c_str(), base, cand, (1.0 - cand / base) * 100, tol * 100);
        ++regressions_;
      } else {
        std::printf("improved   %-44s %14.6g -> %14.6g (-%.1f%%)\n",
                    name.c_str(), base, cand, (1.0 - cand / base) * 100);
      }
    }
  }

  void Missing(const std::string& name) {
    if (opts_.ignore.count(name) != 0) return;
    std::printf("REGRESSION %-44s present in baseline, missing in candidate\n",
                name.c_str());
    ++regressions_;
  }

  void Note(const std::string& name, double base, double cand) {
    std::printf("note       %-44s %14.6g -> %14.6g (zero baseline)\n",
                name.c_str(), base, cand);
  }

  size_t regressions() const { return regressions_; }

 private:
  static double limit_down(double cand, double tol) {
    return cand * (1.0 + tol);
  }

  const Options& opts_;
  size_t regressions_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  std::vector<const char*> files;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_compare: %s needs a value\n", arg);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(arg, "--tol") == 0) {
      opts.tol = std::atof(value());
    } else if (std::strcmp(arg, "--time-tol") == 0) {
      opts.time_tol = std::atof(value());
    } else if (std::strcmp(arg, "--metric-tol") == 0) {
      const std::string spec = value();
      const size_t eq = spec.find('=');
      if (eq == std::string::npos) {
        std::fprintf(stderr, "bench_compare: --metric-tol wants NAME=FRAC\n");
        return 2;
      }
      opts.metric_tol[spec.substr(0, eq)] = std::atof(spec.c_str() + eq + 1);
    } else if (std::strcmp(arg, "--ignore") == 0) {
      opts.ignore.insert(value());
    } else if (arg[0] == '-') {
      std::fprintf(stderr, "bench_compare: unknown option %s\n", arg);
      return 2;
    } else {
      files.push_back(arg);
    }
  }
  if (files.size() != 2) {
    std::fprintf(stderr,
                 "usage: bench_compare <baseline> <candidate> [--tol F] "
                 "[--time-tol F] [--metric-tol NAME=F] [--ignore NAME]\n");
    return 2;
  }

  Envelope base, cand;
  if (!LoadEnvelope(files[0], &base) || !LoadEnvelope(files[1], &cand)) {
    return 2;
  }
  if (base.bench != cand.bench) {
    std::fprintf(stderr,
                 "bench_compare: refusing to compare bench \"%s\" against "
                 "\"%s\"\n",
                 base.bench.c_str(), cand.bench.c_str());
    return 2;
  }
  if (base.config != cand.config) {
    std::fprintf(stderr,
                 "bench_compare: refusing to compare %s runs with different "
                 "configs:\n",
                 base.bench.c_str());
    for (const auto& [k, v] : base.config) {
      const auto it = cand.config.find(k);
      if (it == cand.config.end() || it->second != v) {
        std::fprintf(stderr, "  %s: baseline=%s candidate=%s\n", k.c_str(),
                     v.c_str(),
                     it == cand.config.end() ? "<absent>" : it->second.c_str());
      }
    }
    for (const auto& [k, v] : cand.config) {
      if (base.config.find(k) == base.config.end()) {
        std::fprintf(stderr, "  %s: baseline=<absent> candidate=%s\n",
                     k.c_str(), v.c_str());
      }
    }
    return 2;
  }

  std::printf("bench_compare: %s (%zu config entries, tol %.0f%%, time-tol "
              "%.0f%%)\n",
              base.bench.c_str(), base.config.size(), opts.tol * 100,
              opts.time_tol * 100);

  Comparison cmp(opts);
  for (const auto& [name, value] : base.metrics.counters) {
    const uint64_t* other = cand.metrics.FindCounter(name);
    if (other == nullptr) {
      cmp.Missing(name);
      continue;
    }
    cmp.Compare(name, static_cast<double>(value), static_cast<double>(*other),
                IsTimeMetric(name));
  }
  for (const auto& [name, value] : base.metrics.gauges) {
    const int64_t* other = cand.metrics.FindGauge(name);
    if (other == nullptr) {
      cmp.Missing(name);
      continue;
    }
    cmp.Compare(name, static_cast<double>(value), static_cast<double>(*other),
                IsTimeMetric(name));
  }
  for (const auto& [name, stats] : base.metrics.histograms) {
    const HistogramStats* other = cand.metrics.FindHistogram(name);
    if (other == nullptr) {
      cmp.Missing(name);
      continue;
    }
    cmp.Compare(name + ".count", static_cast<double>(stats.count),
                static_cast<double>(other->count), /*time_scale=*/false);
    // Means of *_ns histograms are wall time; others (sizes, fan-outs) are
    // work measures and get the tight tolerance.
    cmp.Compare(name + ".mean", stats.mean, other->mean, IsTimeMetric(name));
  }

  // Candidate-only metrics: informational.
  for (const auto& [name, value] : cand.metrics.counters) {
    if (base.metrics.FindCounter(name) == nullptr) {
      std::printf("new        %-44s %30.6g\n", name.c_str(),
                  static_cast<double>(value));
    }
  }

  if (cmp.regressions() != 0) {
    std::printf("bench_compare: %zu regression(s)\n", cmp.regressions());
    return 1;
  }
  std::printf("bench_compare: OK\n");
  return 0;
}
