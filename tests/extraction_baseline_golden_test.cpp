// Golden pins for the Canny/Hough baseline over the 12-CSD synthetic qflow
// suite (the paper's Table 1 inputs). Each CSD is replayed through
// run_hough_baseline on a CsdPlayback, so the pins cover the full pixel
// path: playback raster (nearest-index lookups), normalize01, Gaussian,
// Sobel, NMS, hysteresis, Hough voting, peak picking and the least-squares
// slope refinement.
//
// Per CSD the pin is one line: status code, edge-pixel count, an FNV-1a hash
// of the edge map, the steep and shallow HoughLine (rho, theta, votes) and
// the refined voltage-unit slopes. Two extra hashes widen the net beyond the
// baseline's fixed thresholds, which leave the heavy-noise CSDs 1 and 2 with
// no edges at all: one over the bits of the Sobel field (gx, gy, magnitude)
// of the blurred diagram, and one over the edge map the quantile-threshold
// Canny defaults produce. Floats are hex floats, so a kernel rewrite must
// reproduce every output bit for bit. On a mismatch the test prints the
// rendered lines in the pin format.
#include "dataset/qflow_synth.hpp"
#include "extraction/hough_baseline.hpp"
#include "imgproc/filters.hpp"
#include "imgproc/sobel.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <string>
#include <vector>

namespace qvg {
namespace {

std::string hex(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// 64-bit FNV-1a over the raw bytes of one or more grids (row-major).
template <typename T>
std::string fnv1a(std::initializer_list<const Grid2D<T>*> grids) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const Grid2D<T>* grid : grids) {
    const auto* bytes =
        reinterpret_cast<const unsigned char*>(grid->raw().data());
    for (std::size_t i = 0; i < grid->raw().size() * sizeof(T); ++i) {
      h ^= bytes[i];
      h *= 0x100000001b3ULL;
    }
  }
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::string render_line(const HoughLine& line) {
  return hex(line.rho) + "/" + hex(line.theta) + "/" +
         std::to_string(line.votes);
}

std::string render(const QflowBenchmark& benchmark) {
  auto playback = make_playback(benchmark);
  const HoughBaselineResult r = run_hough_baseline(
      *playback, benchmark.csd.x_axis(), benchmark.csd.y_axis());
  // Recompute the edge map from the acquired CSD with the baseline's own
  // stages (the result carries only its pixel count).
  const HoughBaselineOptions opt;
  const GridD normalized = normalize01(r.acquired.grid());
  const GridU8 edges = canny(normalized, opt.canny);
  const GradientField grad =
      sobel_gradients(gaussian_blur(normalized, opt.canny.gaussian_sigma));
  const GridU8 quantile_edges = canny(normalized, CannyOptions{});
  long quantile_pixels = 0;
  for (const std::uint8_t v : quantile_edges.raw()) quantile_pixels += v;
  return benchmark.name() + " " + error_code_name(r.status.code()) +
         " edges " + std::to_string(r.edge_pixels) + " fnv " +
         fnv1a<std::uint8_t>({&edges}) + " steep " +
         render_line(r.steep_line) + " shallow " +
         render_line(r.shallow_line) + " slopes " + hex(r.slope_steep) + " " +
         hex(r.slope_shallow) + " sobel " +
         fnv1a<double>({&grad.gx, &grad.gy, &grad.magnitude}) + " qedges " +
         std::to_string(quantile_pixels) + " " +
         fnv1a<std::uint8_t>({&quantile_edges});
}

const std::vector<std::string> kPins = {
    "csd1 line_not_found edges 0 fnv 600f98ab98233825 steep 0x0p+0/0x0p+0/0 "
    "shallow 0x0p+0/0x0p+0/0 slopes 0x0p+0 0x0p+0 sobel c2eaedf98e414102 "
    "qedges 4253 bcd379ddaef4507e",
    "csd2 line_not_found edges 0 fnv 600f98ab98233825 steep 0x0p+0/0x0p+0/0 "
    "shallow 0x0p+0/0x0p+0/0 slopes 0x0p+0 0x0p+0 sobel 7ae9d084dab5fee3 "
    "qedges 4272 46785b46adc5aed3",
    "csd3 ok edges 88 fnv 4389433c91546cb7 steep "
    "0x1.173c826358246p+5/0x1.893011f31982ep-3/43 shallow "
    "0x1.ce7904c6b048cp+4/0x1.60f9b305dfa12p+0/29 slopes "
    "-0x1.5ee49031f69acp+2 -0x1.823f37f0d0fe5p-3 sobel 55af2c4851f3569a "
    "qedges 158 b9f927c6df0051fb",
    "csd4 ok edges 93 fnv 5156c38d0e4f8026 steep "
    "0x1.073c826358246p+5/0x1.1df46a2529d39p-2/48 shallow "
    "0x1.ce7904c6b048cp+4/0x1.41b2f769cf0ep+0/20 slopes "
    "-0x1.b272d875168bp+1 -0x1.231fa017e6a94p-2 sobel 760d9c6245828c4f "
    "qedges 111 04e8c8b52d635a2a",
    "csd5 ok edges 105 fnv 46c3800985c96412 steep "
    "0x1.073c826358246p+5/0x1.acee9f37bebd6p-3/40 shallow "
    "0x1.be7904c6b048cp+4/0x1.53923e0c21ab4p+0/27 slopes "
    "-0x1.33dae63b764dp+2 -0x1.fb52996746447p-3 sobel 7515131b080e1716 "
    "qedges 152 a6166a2789d122ad",
    "csd6 ok edges 181 fnv d3c7707c4d963384 steep "
    "0x1.dca10ffb2652p+5/0x1.acee9f37bebd6p-3/52 shallow "
    "0x1.aca10ffb2652p+5/0x1.4aa29abaf85cap+0/40 slopes "
    "-0x1.2948cea266f9p+2 -0x1.17bc5d34130a6p-2 sobel 8d99b48f93afd2ce "
    "qedges 259 19064249ef4264dc",
    "csd7 line_not_found edges 100 fnv aa4657f8d34ddce1 steep "
    "0x0p+0/0x0p+0/0 shallow 0x1.8ca10ffb2652p+5/0x1.5c81e15d4af9dp+0/56 "
    "slopes 0x0p+0 0x0p+0 sobel b664795368b10916 qedges 326 "
    "9b3915b5cffb9ffb",
    "csd8 ok edges 136 fnv d67276639287ae6f steep "
    "0x1.aca10ffb2652p+5/0x1.657184ae74487p-3/52 shallow "
    "0x1.8ca10ffb2652p+5/0x1.580a0fb4b6529p+0/35 slopes "
    "-0x1.6a2c649fd0a32p+2 -0x1.f6aacce2ada93p-3 sobel ab1efbe7b22c20f7 "
    "qedges 284 14ec67dd6f9cbd95",
    "csd9 ok edges 166 fnv c45758782cfea2fd steep "
    "0x1.aca10ffb2652p+5/0x1.893011f31982ep-3/51 shallow "
    "0x1.4e5087fd9329p+6/0x1.4f1a6c638d03fp+0/37 slopes "
    "-0x1.42a71956f23e3p+2 -0x1.1b328cb5d3262p-2 sobel 71505e112d27a0bb "
    "qedges 248 0e7163317d495d5f",
    "csd10 ok edges 156 fnv 529a1419435659f7 steep "
    "0x1.9ca10ffb2652p+5/0x1.f46bb9c109324p-3/45 shallow "
    "0x1.74a10ffb2652p+5/0x1.4f1a6c638d03fp+0/31 slopes "
    "-0x1.e7ef638abd546p+1 -0x1.2f9b2e99682aep-2 sobel 503674f346fdc3d6 "
    "qedges 257 1f288c360e768430",
    "csd11 ok edges 163 fnv 02873ec820c08ade steep "
    "0x1.b4a10ffb2652p+5/0x1.f46bb9c109324p-3/52 shallow "
    "0x1.a4a10ffb2652p+5/0x1.5c81e15d4af9dp+0/35 slopes "
    "-0x1.002b7fb76a292p+2 -0x1.8ea27487ebe38p-3 sobel f07f239b447059a1 "
    "qedges 257 62c2ec179b19bda8",
    "csd12 ok edges 311 fnv 41db2e8d1dc80ad8 steep "
    "0x1.8ca10ffb2652p+6/0x1.f46bb9c109324p-3/86 shallow "
    "0x1.80a10ffb2652p+6/0x1.4aa29abaf85cap+0/51 slopes "
    "-0x1.f7cf2692967eap+1 -0x1.14fddc75bd083p-2 sobel ad9e50e2149029c2 "
    "qedges 743 433e3694bd4a21ae",
};

TEST(BaselineGoldenTest, QflowSuiteMatchesPins) {
  const std::vector<QflowBenchmark> suite = build_qflow_suite();
  std::vector<std::string> got;
  for (const QflowBenchmark& benchmark : suite) got.push_back(render(benchmark));

  bool same = got.size() == kPins.size();
  for (std::size_t i = 0; same && i < got.size(); ++i) same = got[i] == kPins[i];
  if (same) return;
  std::string dump;
  for (const std::string& line : got) dump += "    \"" + line + "\",\n";
  for (std::size_t i = 0; i < got.size() && i < kPins.size(); ++i)
    EXPECT_EQ(got[i], kPins[i]) << "line " << i;
  ADD_FAILURE() << "rendered " << got.size() << " lines (pin has "
                << kPins.size() << "):\n"
                << dump;
}

}  // namespace
}  // namespace qvg
