#include "obs/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

namespace fedra::obs {
namespace {

// ---------------------------------------------------------------------------
// Small formatting helpers.

std::string html_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

std::string fmt_g(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

std::string fmt_coord(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

void append(std::string& out, const char* s) { out += s; }

// "Nice" tick positions covering [lo, hi] with roughly `target` steps.
std::vector<double> nice_ticks(double lo, double hi, int target) {
  std::vector<double> ticks;
  if (!(hi > lo)) {
    ticks.push_back(lo);
    return ticks;
  }
  const double raw_step = (hi - lo) / std::max(1, target);
  const double mag = std::pow(10.0, std::floor(std::log10(raw_step)));
  double step = mag;
  for (double mult : {1.0, 2.0, 5.0, 10.0}) {
    if (mag * mult >= raw_step) {
      step = mag * mult;
      break;
    }
  }
  const double first = std::ceil(lo / step) * step;
  for (double t = first; t <= hi + step * 1e-9; t += step) {
    ticks.push_back(std::fabs(t) < step * 1e-9 ? 0.0 : t);
  }
  return ticks;
}

// ---------------------------------------------------------------------------
// Chart frame: maps data space to pixel space and draws grid + axes.

struct Frame {
  double width = 960, height = 300;
  double left = 60, right = 16, top = 14, bottom = 34;
  double x_min = 0, x_max = 1, y_min = 0, y_max = 1;

  double plot_w() const { return width - left - right; }
  double plot_h() const { return height - top - bottom; }
  double x(double v) const {
    return left + (v - x_min) / (x_max - x_min) * plot_w();
  }
  double y(double v) const {
    return top + (1.0 - (v - y_min) / (y_max - y_min)) * plot_h();
  }
};

std::string svg_open(const Frame& f, const std::string& label) {
  std::string out = "<svg viewBox=\"0 0 " + fmt_coord(f.width) + " " +
                    fmt_coord(f.height) + "\" role=\"img\" aria-label=\"" +
                    html_escape(label) + "\">";
  return out;
}

// Horizontal hairline grid + y tick labels + x tick labels + baseline.
std::string frame_chrome(const Frame& f, const std::string& x_label,
                         const std::string& y_label) {
  std::string out;
  for (double t : nice_ticks(f.y_min, f.y_max, 4)) {
    const std::string y = fmt_coord(f.y(t));
    out += "<line class=\"grid\" x1=\"" + fmt_coord(f.left) + "\" y1=\"" + y +
           "\" x2=\"" + fmt_coord(f.width - f.right) + "\" y2=\"" + y +
           "\"/>";
    out += "<text class=\"tick\" x=\"" + fmt_coord(f.left - 6) + "\" y=\"" +
           fmt_coord(f.y(t) + 3.5) + "\" text-anchor=\"end\">" + fmt_g(t) +
           "</text>";
  }
  for (double t : nice_ticks(f.x_min, f.x_max, 8)) {
    if (t != std::floor(t)) continue;  // round numbers only on a round axis
    out += "<text class=\"tick\" x=\"" + fmt_coord(f.x(t)) + "\" y=\"" +
           fmt_coord(f.height - f.bottom + 16) +
           "\" text-anchor=\"middle\">" + fmt_g(t) + "</text>";
  }
  const std::string base_y = fmt_coord(f.height - f.bottom);
  out += "<line class=\"axis\" x1=\"" + fmt_coord(f.left) + "\" y1=\"" +
         base_y + "\" x2=\"" + fmt_coord(f.width - f.right) + "\" y2=\"" +
         base_y + "\"/>";
  out += "<text class=\"axis-label\" x=\"" +
         fmt_coord(f.left + f.plot_w() / 2) + "\" y=\"" +
         fmt_coord(f.height - 4) + "\" text-anchor=\"middle\">" +
         html_escape(x_label) + "</text>";
  out += "<text class=\"axis-label\" x=\"12\" y=\"" + fmt_coord(f.top + 2) +
         "\">" + html_escape(y_label) + "</text>";
  return out;
}

struct Series {
  std::string name;
  const char* color;  // CSS custom property reference, e.g. "var(--series-1)"
  std::vector<std::pair<double, double>> pts;
};

std::string legend_html(const std::vector<Series>& series) {
  std::string out = "<div class=\"legend\">";
  for (const Series& s : series) {
    out += "<span class=\"legend-item\"><span class=\"swatch\" style=\"background:";
    out += s.color;
    out += "\"></span>" + html_escape(s.name) + "</span>";
  }
  out += "</div>";
  return out;
}

std::string polyline(const Frame& f, const Series& s) {
  std::string out = "<polyline class=\"line\" style=\"stroke:";
  out += s.color;
  out += "\" points=\"";
  for (std::size_t i = 0; i < s.pts.size(); ++i) {
    if (i > 0) out += ' ';
    out += fmt_coord(f.x(s.pts[i].first)) + "," + fmt_coord(f.y(s.pts[i].second));
  }
  out += "\"/>";
  return out;
}

// ---------------------------------------------------------------------------
// Stat tiles.

void stat_tile(std::string& out, const std::string& label,
               const std::string& value, const std::string& note = "") {
  out += "<div class=\"tile\"><div class=\"tile-label\">" +
         html_escape(label) + "</div><div class=\"tile-value\">" +
         html_escape(value) + "</div>";
  if (!note.empty()) {
    out += "<div class=\"tile-note\">" + html_escape(note) + "</div>";
  }
  out += "</div>";
}

// ---------------------------------------------------------------------------
// Chart 1: per-round cost decomposition lines.

std::string cost_chart(const RunAttribution& attr) {
  std::vector<Series> series(3);
  series[0] = {"cost (T + \xce\xbb\xce\xa3" "E)", "var(--series-1)", {}};
  series[1] = {"time term T", "var(--series-2)", {}};
  series[2] = {"energy term \xce\xbb\xce\xa3" "E", "var(--series-3)", {}};
  double y_max = 0.0;
  double x_min = 1e300, x_max = -1e300;
  for (const RoundAttribution& r : attr.rounds) {
    const double x = static_cast<double>(r.round);
    series[0].pts.emplace_back(x, r.cost);
    series[1].pts.emplace_back(x, r.time_term);
    series[2].pts.emplace_back(x, r.energy_term);
    y_max = std::max({y_max, r.cost, r.time_term, r.energy_term});
    x_min = std::min(x_min, x);
    x_max = std::max(x_max, x);
  }
  Frame f;
  f.x_min = x_min;
  f.x_max = x_max > x_min ? x_max : x_min + 1;
  f.y_min = 0.0;
  f.y_max = y_max > 0 ? y_max * 1.06 : 1.0;

  std::string out = legend_html(series);
  out += svg_open(f, "Per-round cost decomposition");
  out += frame_chrome(f, "round", "cost");
  for (const Series& s : series) out += polyline(f, s);
  // Per-point markers with native tooltips; skipped on long runs where
  // they would smear into the line.
  if (attr.rounds.size() <= 120) {
    for (std::size_t si = 0; si < series.size(); ++si) {
      for (const auto& [x, y] : series[si].pts) {
        out += "<circle class=\"dot\" style=\"fill:";
        out += series[si].color;
        out += "\" cx=\"" + fmt_coord(f.x(x)) + "\" cy=\"" +
               fmt_coord(f.y(y)) + "\" r=\"3\"><title>round " + fmt_g(x) +
               " \xc2\xb7 " + series[si].name + " = " + fmt_g(y) +
               "</title></circle>";
      }
    }
  }
  out += "</svg>";
  return out;
}

// ---------------------------------------------------------------------------
// Chart 2: device-by-round timeline heatmap with fault overlays.

// Sequential blue ramp (reference palette steps 100..700); the lightest
// step means "near zero" and recedes into the surface.
constexpr const char* kSeqRamp[8] = {"#cde2fb", "#9ec5f4", "#6da7ec",
                                     "#3987e5", "#2a78d6", "#256abf",
                                     "#1c5cab", "#0d366b"};

struct HeatCell {
  double active_time = 0.0;
  bool participated = false;
  bool failed = false;
  bool straggler = false;
  std::string tip;
};

std::string heatmap_chart(const Ledger& ledger, const RunAttribution& attr) {
  const std::size_t num_devices = attr.devices.size();
  const std::size_t num_rounds = ledger.rounds.size();
  if (num_devices == 0 || num_rounds == 0) return "";

  // Long runs: bucket consecutive rounds so cells stay readable.  Within
  // a bucket times are averaged and failure flags OR'd.
  const std::size_t max_cols = 200;
  const std::size_t bucket =
      num_rounds > max_cols ? (num_rounds + max_cols - 1) / max_cols : 1;
  const std::size_t cols = (num_rounds + bucket - 1) / bucket;

  std::vector<std::vector<HeatCell>> grid(
      num_devices, std::vector<HeatCell>(cols));
  std::vector<std::vector<std::size_t>> fill_counts(
      num_devices, std::vector<std::size_t>(cols, 0));
  double max_active = 0.0;
  for (std::size_t k = 0; k < num_rounds; ++k) {
    const RoundRecord& round = ledger.rounds[k];
    const std::size_t col = k / bucket;
    const int straggler =
        k < attr.rounds.size() ? attr.rounds[k].straggler : -1;
    for (const DeviceRoundRecord& d : round.devices) {
      if (d.device >= num_devices) continue;
      HeatCell& cell = grid[d.device][col];
      if (d.participated) {
        cell.participated = true;
        cell.active_time += d.compute_time + d.comm_time;
        ++fill_counts[d.device][col];
      }
      if (d.participated && !d.completed) cell.failed = true;
      if (straggler == static_cast<int>(d.device)) cell.straggler = true;
      if (bucket == 1) {
        cell.tip = "device " + std::to_string(d.device) + " \xc2\xb7 round " +
                   std::to_string(round.round) + "\nt_cmp=" +
                   fmt_g(d.compute_time) + " t_com=" + fmt_g(d.comm_time) +
                   "\nE=" + fmt_g(d.energy) + " bw=" + fmt_g(d.avg_bandwidth);
        if (d.failure != "none") cell.tip += "\nfailed: " + d.failure;
      }
    }
  }
  for (std::size_t dev = 0; dev < num_devices; ++dev) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (fill_counts[dev][c] > 0) {
        grid[dev][c].active_time /=
            static_cast<double>(fill_counts[dev][c]);
      }
      max_active = std::max(max_active, grid[dev][c].active_time);
    }
  }

  const double cell_h = 22.0, gap = 2.0;
  Frame f;
  f.left = 72;
  f.right = 16;
  f.top = 8;
  f.bottom = 30;
  f.height = f.top + f.bottom +
             static_cast<double>(num_devices) * (cell_h + gap);
  const double cell_w =
      std::max(2.0, (f.width - f.left - f.right - gap * cols) /
                        static_cast<double>(cols));

  std::string out =
      "<div class=\"legend\">"
      "<span class=\"legend-item\"><span class=\"swatch\" "
      "style=\"background:" +
      std::string(kSeqRamp[1]) +
      "\"></span>short round</span>"
      "<span class=\"legend-item\"><span class=\"swatch\" "
      "style=\"background:" +
      std::string(kSeqRamp[6]) +
      "\"></span>long round</span>"
      "<span class=\"legend-item\"><span class=\"fault-mark\">\xe2\x9c\x95"
      "</span>failed update</span>"
      "<span class=\"legend-item\"><span class=\"swatch straggler-swatch\">"
      "</span>round straggler</span></div>";
  out += svg_open(f, "Per-device round timeline");
  for (std::size_t dev = 0; dev < num_devices; ++dev) {
    const double y = f.top + static_cast<double>(dev) * (cell_h + gap);
    out += "<text class=\"tick\" x=\"" + fmt_coord(f.left - 8) + "\" y=\"" +
           fmt_coord(y + cell_h / 2 + 3.5) +
           "\" text-anchor=\"end\">dev " + std::to_string(dev) + "</text>";
    for (std::size_t c = 0; c < cols; ++c) {
      const HeatCell& cell = grid[dev][c];
      const double x = f.left + static_cast<double>(c) * (cell_w + gap);
      if (!cell.participated) {
        out += "<rect class=\"cell-idle\" x=\"" + fmt_coord(x) + "\" y=\"" +
               fmt_coord(y) + "\" width=\"" + fmt_coord(cell_w) +
               "\" height=\"" + fmt_coord(cell_h) + "\" rx=\"2\"/>";
        continue;
      }
      int step = 0;
      if (max_active > 0.0) {
        step = static_cast<int>(cell.active_time / max_active * 7.999);
        step = std::clamp(step, 0, 7);
      }
      out += "<rect x=\"" + fmt_coord(x) + "\" y=\"" + fmt_coord(y) +
             "\" width=\"" + fmt_coord(cell_w) + "\" height=\"" +
             fmt_coord(cell_h) + "\" rx=\"2\" fill=\"" + kSeqRamp[step] +
             "\"";
      if (cell.straggler) out += " class=\"cell-straggler\"";
      out += ">";
      if (!cell.tip.empty()) {
        out += "<title>" + html_escape(cell.tip) + "</title>";
      } else {
        out += "<title>device " + std::to_string(dev) + " \xc2\xb7 rounds " +
               std::to_string(c * bucket) + "\xe2\x80\x93" +
               std::to_string(std::min(num_rounds, (c + 1) * bucket) - 1) +
               " \xc2\xb7 mean active " + fmt_g(cell.active_time) +
               "</title>";
      }
      out += "</rect>";
      if (cell.failed) {
        // Status-critical cross; meaning is carried by the legend's
        // icon + label, never by the color alone.
        const double cx = x + cell_w / 2, cy = y + cell_h / 2;
        const double r = std::min(cell_w, cell_h) * 0.26;
        out += "<path class=\"fault-cross\" d=\"M" + fmt_coord(cx - r) +
               " " + fmt_coord(cy - r) + " L" + fmt_coord(cx + r) + " " +
               fmt_coord(cy + r) + " M" + fmt_coord(cx + r) + " " +
               fmt_coord(cy - r) + " L" + fmt_coord(cx - r) + " " +
               fmt_coord(cy + r) + "\"/>";
      }
    }
  }
  out += "<text class=\"axis-label\" x=\"" +
         fmt_coord(f.left + (f.width - f.left - f.right) / 2) + "\" y=\"" +
         fmt_coord(f.height - 8) + "\" text-anchor=\"middle\">round" +
         std::string(bucket > 1 ? " (bucketed \xc3\x97" +
                                      std::to_string(bucket) + ")"
                                : "") +
         "</text>";
  out += "</svg>";
  return out;
}

// ---------------------------------------------------------------------------
// Chart 3: predicted vs realized cost scatter.

std::string prediction_chart(const RunAttribution& attr) {
  if (attr.predictions.empty()) return "";
  double lo = 1e300, hi = -1e300;
  for (const PredictionPoint& p : attr.predictions) {
    lo = std::min({lo, p.predicted, p.realized});
    hi = std::max({hi, p.predicted, p.realized});
  }
  if (!(hi > lo)) hi = lo + 1.0;
  const double pad = (hi - lo) * 0.06;
  Frame f;
  f.height = 340;
  f.x_min = std::max(0.0, lo - pad);
  f.x_max = hi + pad;
  f.y_min = f.x_min;
  f.y_max = f.x_max;

  std::string out = svg_open(f, "Predicted vs realized round cost");
  out += frame_chrome(f, "predicted cost (fault-free preview)",
                      "realized cost");
  // y = x reference: a perfectly predicted round sits on this line.
  out += "<line class=\"ref-line\" x1=\"" + fmt_coord(f.x(f.x_min)) +
         "\" y1=\"" + fmt_coord(f.y(f.x_min)) + "\" x2=\"" +
         fmt_coord(f.x(f.x_max)) + "\" y2=\"" + fmt_coord(f.y(f.x_max)) +
         "\"/>";
  out += "<text class=\"tick\" x=\"" + fmt_coord(f.x(f.x_max) - 4) +
         "\" y=\"" + fmt_coord(f.y(f.x_max) + 14) +
         "\" text-anchor=\"end\">predicted = realized</text>";
  for (const PredictionPoint& p : attr.predictions) {
    out += "<circle class=\"marker\" cx=\"" + fmt_coord(f.x(p.predicted)) +
           "\" cy=\"" + fmt_coord(f.y(p.realized)) +
           "\" r=\"4\"><title>round " + std::to_string(p.round) + " (" +
           html_escape(p.source) + ")\npredicted " + fmt_g(p.predicted) +
           " \xe2\x86\x92 realized " + fmt_g(p.realized) + " (\xce\x94 " +
           fmt_g(p.error) + ")</title></circle>";
  }
  out += "</svg>";
  return out;
}

// ---------------------------------------------------------------------------
// Chart 4: straggler rounds per device (bars).

std::string straggler_chart(const RunAttribution& attr) {
  if (attr.devices.empty()) return "";
  std::size_t max_count = 0;
  for (const DeviceProfile& d : attr.devices) {
    max_count = std::max(max_count, d.straggler_rounds);
  }
  Frame f;
  f.height = 220;
  f.x_min = -0.5;
  f.x_max = static_cast<double>(attr.devices.size()) - 0.5;
  f.y_min = 0;
  f.y_max = max_count > 0 ? static_cast<double>(max_count) * 1.1 : 1.0;

  std::string out = svg_open(f, "Straggler rounds per device");
  out += frame_chrome(f, "device", "straggler rounds");
  const double slot = f.plot_w() / static_cast<double>(attr.devices.size());
  const double bar_w = std::min(24.0, slot - 2.0);
  for (std::size_t dev = 0; dev < attr.devices.size(); ++dev) {
    const DeviceProfile& d = attr.devices[dev];
    const double xc = f.x(static_cast<double>(dev));
    const double y = f.y(static_cast<double>(d.straggler_rounds));
    const double base = f.y(0.0);
    if (d.straggler_rounds > 0) {
      out += "<path class=\"bar\" d=\"M" + fmt_coord(xc - bar_w / 2) + " " +
             fmt_coord(base) + " V" + fmt_coord(y + 4) + " Q" +
             fmt_coord(xc - bar_w / 2) + " " + fmt_coord(y) + " " +
             fmt_coord(xc - bar_w / 2 + 4) + " " + fmt_coord(y) + " H" +
             fmt_coord(xc + bar_w / 2 - 4) + " Q" + fmt_coord(xc + bar_w / 2) +
             " " + fmt_coord(y) + " " + fmt_coord(xc + bar_w / 2) + " " +
             fmt_coord(y + 4) + " V" + fmt_coord(base) + " Z\">";
      out += "<title>device " + std::to_string(dev) + ": straggler in " +
             std::to_string(d.straggler_rounds) + " rounds, " +
             std::to_string(d.failures) + " failed updates</title></path>";
    }
    out += "<text class=\"tick\" x=\"" + fmt_coord(xc) + "\" y=\"" +
           fmt_coord(f.height - f.bottom + 16) +
           "\" text-anchor=\"middle\">" + std::to_string(dev) + "</text>";
  }
  out += "</svg>";
  return out;
}

// ---------------------------------------------------------------------------
// Table views (the accessibility twin of each chart).

std::string rounds_table(const Ledger& ledger, const RunAttribution& attr) {
  std::string out =
      "<details><summary>Table view</summary><table><thead><tr>"
      "<th>round</th><th>cost</th><th>T</th><th>\xce\xbb\xce\xa3"
      "E</th><th>straggler</th><th>bottleneck</th><th>failures</th>"
      "<th>cumulative cost</th></tr></thead><tbody>";
  const std::size_t cap = 200;
  for (std::size_t i = 0; i < attr.rounds.size() && i < cap; ++i) {
    const RoundAttribution& r = attr.rounds[i];
    out += "<tr><td>" + std::to_string(r.round) + "</td><td>" +
           fmt_g(r.cost) + "</td><td>" + fmt_g(r.time_term) + "</td><td>" +
           fmt_g(r.energy_term) + "</td><td>" +
           (r.straggler >= 0 ? "dev " + std::to_string(r.straggler)
                             : std::string("\xe2\x80\x94")) +
           "</td><td>" + bottleneck_name(r.bottleneck) + "</td><td>" +
           std::to_string(r.failures) + "</td><td>" + fmt_g(r.cum_cost) +
           "</td></tr>";
  }
  out += "</tbody></table>";
  if (attr.rounds.size() > cap) {
    out += "<p class=\"note\">first " + std::to_string(cap) + " of " +
           std::to_string(attr.rounds.size()) + " rounds shown.</p>";
  }
  (void)ledger;
  out += "</details>";
  return out;
}

std::string devices_table(const RunAttribution& attr) {
  std::string out =
      "<details><summary>Table view</summary><table><thead><tr>"
      "<th>device</th><th>rounds</th><th>straggler</th><th>failures</th>"
      "<th>\xce\xa3 t_cmp</th><th>\xce\xa3 t_com</th><th>\xce\xa3 idle</th>"
      "<th>\xce\xa3 E</th></tr></thead><tbody>";
  for (std::size_t dev = 0; dev < attr.devices.size(); ++dev) {
    const DeviceProfile& d = attr.devices[dev];
    out += "<tr><td>" + std::to_string(dev) + "</td><td>" +
           std::to_string(d.rounds_participated) + "</td><td>" +
           std::to_string(d.straggler_rounds) + "</td><td>" +
           std::to_string(d.failures) + "</td><td>" +
           fmt_g(d.total_compute_time) + "</td><td>" +
           fmt_g(d.total_comm_time) + "</td><td>" +
           fmt_g(d.total_idle_time) + "</td><td>" + fmt_g(d.total_energy) +
           "</td></tr>";
  }
  out += "</tbody></table></details>";
  return out;
}

std::string predictions_table(const RunAttribution& attr) {
  std::string out =
      "<details><summary>Table view</summary><table><thead><tr>"
      "<th>round</th><th>source</th><th>predicted</th><th>realized</th>"
      "<th>error</th></tr></thead><tbody>";
  const std::size_t cap = 200;
  for (std::size_t i = 0; i < attr.predictions.size() && i < cap; ++i) {
    const PredictionPoint& p = attr.predictions[i];
    out += "<tr><td>" + std::to_string(p.round) + "</td><td>" +
           html_escape(p.source) + "</td><td>" + fmt_g(p.predicted) +
           "</td><td>" + fmt_g(p.realized) + "</td><td>" + fmt_g(p.error) +
           "</td></tr>";
  }
  out += "</tbody></table></details>";
  return out;
}

// ---------------------------------------------------------------------------
// Style + script.  Values come from the reference palette; dark mode is
// its own selected steps, applied via prefers-color-scheme with a
// data-theme override that wins both ways.

constexpr const char* kStyle = R"css(
:root { color-scheme: light dark; }
body.viz-root {
  color-scheme: light;
  --page: #f9f9f7;
  --surface-1: #fcfcfb;
  --text-primary: #0b0b0b;
  --text-secondary: #52514e;
  --text-muted: #898781;
  --grid: #e1e0d9;
  --axis: #c3c2b7;
  --border: rgba(11, 11, 11, 0.10);
  --series-1: #2a78d6;
  --series-2: #eb6834;
  --series-3: #1baf7a;
  --status-critical: #d03b3b;
  margin: 0;
  background: var(--page);
  color: var(--text-primary);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) body.viz-root {
    color-scheme: dark;
    --page: #0d0d0d;
    --surface-1: #1a1a19;
    --text-primary: #ffffff;
    --text-secondary: #c3c2b7;
    --text-muted: #898781;
    --grid: #2c2c2a;
    --axis: #383835;
    --border: rgba(255, 255, 255, 0.10);
    --series-1: #3987e5;
    --series-2: #d95926;
    --series-3: #199e70;
  }
}
:root[data-theme="dark"] body.viz-root {
  color-scheme: dark;
  --page: #0d0d0d;
  --surface-1: #1a1a19;
  --text-primary: #ffffff;
  --text-secondary: #c3c2b7;
  --text-muted: #898781;
  --grid: #2c2c2a;
  --axis: #383835;
  --border: rgba(255, 255, 255, 0.10);
  --series-1: #3987e5;
  --series-2: #d95926;
  --series-3: #199e70;
}
main { max-width: 1020px; margin: 0 auto; padding: 24px 16px 48px; }
header.page { display: flex; align-items: baseline; gap: 12px; flex-wrap: wrap; }
header.page h1 { font-size: 20px; margin: 0; }
header.page .meta { color: var(--text-muted); font-size: 12px; }
header.page button {
  margin-left: auto; font: inherit; font-size: 12px;
  color: var(--text-secondary); background: var(--surface-1);
  border: 1px solid var(--border); border-radius: 6px;
  padding: 4px 10px; cursor: pointer;
}
.tiles { display: flex; gap: 12px; flex-wrap: wrap; margin: 18px 0; }
.tile {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 12px 16px; min-width: 128px;
}
.tile-label { font-size: 12px; color: var(--text-secondary); }
.tile-value { font-size: 26px; font-weight: 600; margin-top: 2px; }
.tile-note { font-size: 12px; color: var(--text-muted); margin-top: 2px; }
section.card {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 16px; margin: 16px 0;
}
section.card h2 { font-size: 15px; margin: 0 0 2px; }
section.card .sub { font-size: 12px; color: var(--text-secondary); margin: 0 0 10px; }
svg { width: 100%; height: auto; display: block; }
svg text { font: 11px system-ui, -apple-system, "Segoe UI", sans-serif; }
.tick { fill: var(--text-muted); font-variant-numeric: tabular-nums; }
.axis-label { fill: var(--text-secondary); }
.grid { stroke: var(--grid); stroke-width: 1; }
.axis { stroke: var(--axis); stroke-width: 1; }
.line { fill: none; stroke-width: 2; stroke-linejoin: round; }
.dot { stroke: var(--surface-1); stroke-width: 2; }
.marker { fill: var(--series-1); stroke: var(--surface-1); stroke-width: 2; }
.ref-line { stroke: var(--text-muted); stroke-width: 1; stroke-dasharray: 4 4; }
.bar { fill: var(--series-1); }
.cell-idle { fill: none; stroke: var(--grid); stroke-width: 1; }
.cell-straggler { stroke: var(--text-primary); stroke-width: 2; }
.fault-cross { stroke: var(--status-critical); stroke-width: 2.5; fill: none; stroke-linecap: round; }
.fault-mark { color: var(--status-critical); font-weight: 700; margin-right: 4px; }
.straggler-swatch { background: transparent; border: 2px solid var(--text-primary); }
.legend { display: flex; gap: 16px; flex-wrap: wrap; font-size: 12px; color: var(--text-secondary); margin-bottom: 8px; }
.legend-item { display: inline-flex; align-items: center; gap: 6px; }
.swatch { width: 10px; height: 10px; border-radius: 3px; display: inline-block; }
details { margin-top: 10px; font-size: 12px; }
details summary { cursor: pointer; color: var(--text-secondary); }
table { border-collapse: collapse; margin-top: 8px; width: 100%; }
th, td {
  text-align: right; padding: 3px 10px; font-variant-numeric: tabular-nums;
  border-bottom: 1px solid var(--grid); font-size: 12px;
}
th { color: var(--text-secondary); font-weight: 600; }
td:first-child, th:first-child { text-align: left; }
.note { color: var(--text-muted); font-size: 12px; }
footer { color: var(--text-muted); font-size: 12px; margin-top: 24px; }
)css";

constexpr const char* kScript = R"js(
(function () {
  var btn = document.getElementById('theme-toggle');
  if (!btn) return;
  var states = ['auto', 'light', 'dark'];
  var idx = 0;
  btn.addEventListener('click', function () {
    idx = (idx + 1) % states.length;
    if (states[idx] === 'auto') {
      delete document.documentElement.dataset.theme;
    } else {
      document.documentElement.dataset.theme = states[idx];
    }
    btn.textContent = 'theme: ' + states[idx];
  });
})();
)js";

void open_card(std::string& out, const std::string& title,
               const std::string& subtitle) {
  out += "<section class=\"card\"><h2>" + html_escape(title) + "</h2>";
  if (!subtitle.empty()) {
    out += "<p class=\"sub\">" + html_escape(subtitle) + "</p>";
  }
}

}  // namespace

std::string render_report_html(const Ledger& ledger,
                               const RunAttribution& attr,
                               const ReportOptions& options) {
  std::string out;
  out.reserve(1 << 16);
  append(out, "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n");
  append(out, "<meta charset=\"utf-8\">\n");
  append(out,
         "<meta name=\"viewport\" content=\"width=device-width, "
         "initial-scale=1\">\n");
  out += "<title>" + html_escape(options.title) + "</title>\n<style>";
  append(out, kStyle);
  append(out, "</style>\n</head>\n<body class=\"viz-root\">\n<main>\n");

  out += "<header class=\"page\"><h1>" + html_escape(options.title) +
         "</h1><span class=\"meta\">";
  if (!ledger.run_id.empty()) out += "run " + html_escape(ledger.run_id) + " \xc2\xb7 ";
  out += html_escape(ledger.schema.empty() ? std::string("no header record")
                                           : ledger.schema);
  if (!options.source_path.empty()) {
    out += " \xc2\xb7 " + html_escape(options.source_path);
  }
  out += "</span><button id=\"theme-toggle\" type=\"button\">theme: auto"
         "</button></header>\n";

  if (ledger.parse_errors > 0) {
    out += "<p class=\"note\">\xe2\x9a\xa0 " +
           std::to_string(ledger.parse_errors) +
           " malformed ledger line(s) skipped.</p>";
  }

  // Stat tiles.
  out += "<div class=\"tiles\">";
  stat_tile(out, "rounds", std::to_string(ledger.rounds.size()));
  stat_tile(out, "total cost", fmt_g(attr.total_cost),
            "\xce\xa3 T + \xce\xbb\xce\xa3" "E");
  if (attr.total_cost > 0.0) {
    char pct[32];
    std::snprintf(pct, sizeof(pct), "%.1f%%",
                  attr.total_time_term / attr.total_cost * 100.0);
    stat_tile(out, "time share", pct,
              "energy term " + fmt_g(attr.total_energy_term));
  }
  stat_tile(out, "failed updates", std::to_string(attr.total_failures));
  if (!attr.predictions.empty()) {
    stat_tile(out, "mean |pred error|",
              fmt_g(attr.mean_abs_prediction_error),
              std::to_string(attr.predictions.size()) + " decisions");
  }
  out += "</div>\n";

  if (ledger.rounds.empty()) {
    out += "<p class=\"note\">ledger contains no round records.</p>";
  } else {
    open_card(out, "Per-round cost",
              "the objective per round and its T / \xce\xbb\xce\xa3"
              "E split");
    out += cost_chart(attr);
    out += rounds_table(ledger, attr);
    out += "</section>\n";

    open_card(out, "Device timelines",
              "per-device active time by round; \xe2\x9c\x95 marks a lost "
              "update, outline marks the round straggler");
    out += heatmap_chart(ledger, attr);
    out += devices_table(attr);
    out += "</section>\n";

    char share[96];
    std::snprintf(share, sizeof(share),
                  "%zu compute-bound / %zu comm-bound rounds",
                  attr.compute_bound_rounds, attr.comm_bound_rounds);
    open_card(out, "Straggler attribution", share);
    out += straggler_chart(attr);
    out += "</section>\n";
  }

  if (!attr.predictions.empty()) {
    open_card(out, "Predicted vs realized cost",
              "preview() prediction (fault-free) against what the round "
              "actually cost; distance from the dashed line is "
              "fault-driven or model error");
    out += prediction_chart(attr);
    out += predictions_table(attr);
    out += "</section>\n";
  }

  if (!ledger.fl_rounds.empty()) {
    open_card(out, "Federated training",
              "FedAvg aggregation rounds from the same run");
    out +=
        "<table><thead><tr><th>round</th><th>loss</th><th>accuracy</th>"
        "<th>mean client loss</th><th>participants</th><th>delivered</th>"
        "</tr></thead><tbody>";
    const std::size_t cap = 200;
    for (std::size_t i = 0; i < ledger.fl_rounds.size() && i < cap; ++i) {
      const FlRoundRecord& r = ledger.fl_rounds[i];
      out += "<tr><td>" + std::to_string(r.round) + "</td><td>" +
             fmt_g(r.global_loss) + "</td><td>" + fmt_g(r.global_accuracy) +
             "</td><td>" + fmt_g(r.mean_client_loss) + "</td><td>" +
             std::to_string(r.num_participants) + "</td><td>" +
             std::to_string(r.num_delivered) + "</td></tr>";
    }
    out += "</tbody></table></section>\n";
  }

  if (!options.phases.empty() || options.telemetry_skipped > 0) {
    open_card(out, "Telemetry phases",
              "aggregated trace spans from the telemetry JSONL");
    if (options.telemetry_skipped > 0) {
      out += "<p class=\"note\">\xe2\x9a\xa0 " +
             std::to_string(options.telemetry_skipped) +
             " unparseable telemetry line(s) skipped.</p>";
    }
    out +=
        "<table><thead><tr><th>span</th><th>count</th><th>total ms</th>"
        "<th>mean \xc2\xb5s</th><th>max \xc2\xb5s</th></tr></thead><tbody>";
    for (const PhaseRow& p : options.phases) {
      out += "<tr><td>" + html_escape(p.name) + "</td><td>" +
             std::to_string(p.count) + "</td><td>" +
             fmt_g(p.total_us / 1000.0) + "</td><td>" +
             fmt_g(p.count > 0
                       ? p.total_us / static_cast<double>(p.count)
                       : 0.0) +
             "</td><td>" + fmt_g(p.max_us) + "</td></tr>";
    }
    out += "</tbody></table></section>\n";
  }

  out += "<footer>generated by tools/fedra_report \xc2\xb7 schema " +
         html_escape(std::string(kLedgerSchema)) +
         " \xc2\xb7 self-contained (inline SVG, no external "
         "resources)</footer>\n";
  append(out, "</main>\n<script>");
  append(out, kScript);
  append(out, "</script>\n</body>\n</html>\n");
  return out;
}

}  // namespace fedra::obs
