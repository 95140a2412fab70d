#include "common/random.hpp"
#include "dataset/qflow_synth.hpp"
#include "extraction/fast_extractor.hpp"
#include "extraction/piecewise_fit.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <tuple>

namespace qvg {
namespace {

struct PathSpec {
  Pixel anchor_a{10, 50};
  Pixel anchor_b{60, 8};
  Point2 vertex{52.0, 40.0};
};

/// Sample pixels along the A->vertex and vertex->B segments.
std::vector<Pixel> path_points(const PathSpec& spec, double jitter_sigma = 0.0,
                               std::uint64_t seed = 3) {
  Rng rng(seed);
  std::vector<Pixel> points;
  const Point2 a = spec.anchor_a.center();
  const Point2 b = spec.anchor_b.center();
  for (int i = 1; i < 20; ++i) {
    const double t = i / 20.0;
    Point2 p{a.x + t * (spec.vertex.x - a.x), a.y + t * (spec.vertex.y - a.y)};
    if (jitter_sigma > 0) p.y += rng.normal(0.0, jitter_sigma);
    points.push_back({static_cast<int>(std::lround(p.x)),
                      static_cast<int>(std::lround(p.y))});
  }
  for (int i = 1; i < 20; ++i) {
    const double t = i / 20.0;
    Point2 p{spec.vertex.x + t * (b.x - spec.vertex.x),
             spec.vertex.y + t * (b.y - spec.vertex.y)};
    if (jitter_sigma > 0) p.x += rng.normal(0.0, jitter_sigma);
    points.push_back({static_cast<int>(std::lround(p.x)),
                      static_cast<int>(std::lround(p.y))});
  }
  return points;
}

TEST(DistanceToPathTest, KnownDistances) {
  const Point2 a{0, 10};
  const Point2 vertex{10, 10};
  const Point2 b{10, 0};
  EXPECT_DOUBLE_EQ(distance_to_path({5, 10}, a, vertex, b), 0.0);
  EXPECT_DOUBLE_EQ(distance_to_path({5, 8}, a, vertex, b), 2.0);
  EXPECT_DOUBLE_EQ(distance_to_path({12, 10}, a, vertex, b), 2.0);
  EXPECT_NEAR(distance_to_path({13, 14}, a, vertex, b), 5.0, 1e-12);
}

/// Reference distance: one hypot per segment, then the smaller of the two.
double segment_distance_oracle(Point2 p, Point2 a, Point2 b) {
  const Point2 ab = b - a;
  const double len2 = ab.x * ab.x + ab.y * ab.y;
  if (len2 < 1e-300) return std::hypot(p.x - a.x, p.y - a.y);
  double t = ((p.x - a.x) * ab.x + (p.y - a.y) * ab.y) / len2;
  t = std::clamp(t, 0.0, 1.0);
  return std::hypot(p.x - (a.x + t * ab.x), p.y - (a.y + t * ab.y));
}

double distance_to_path_oracle(Point2 p, Point2 a, Point2 vertex, Point2 b) {
  return std::min(segment_distance_oracle(p, a, vertex),
                  segment_distance_oracle(p, vertex, b));
}

std::string hex(Point2 p) {
  std::ostringstream os;
  os << std::hexfloat << '(' << p.x << ", " << p.y << ')';
  return os.str();
}

void expect_matches_oracle(Point2 p, Point2 a, Point2 vertex, Point2 b) {
  const double got = distance_to_path(p, a, vertex, b);
  const double want = distance_to_path_oracle(p, a, vertex, b);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(want))
      << "p=" << hex(p) << " a=" << hex(a) << " vertex=" << hex(vertex)
      << " b=" << hex(b) << std::hexfloat << " got=" << got << " want=" << want;
}

TEST(DistanceToPathTest, MatchesOracleOnRandomPoints) {
  Rng rng(20240611);
  for (int i = 0; i < 20000; ++i) {
    const Point2 a{rng.uniform(0.0, 40.0), rng.uniform(30.0, 80.0)};
    const Point2 b{rng.uniform(40.0, 80.0), rng.uniform(0.0, 30.0)};
    const Point2 vertex{rng.uniform(a.x, b.x), rng.uniform(b.y, a.y)};
    const Point2 p{rng.uniform(-10.0, 90.0), rng.uniform(-10.0, 90.0)};
    expect_matches_oracle(p, a, vertex, b);
  }
}

TEST(DistanceToPathTest, MatchesOracleOnBisectorNearTies) {
  const Point2 a{10, 50};
  const Point2 vertex{52.3, 40.1};
  const Point2 b{60, 8};
  auto unit = [](Point2 d) { return (1.0 / std::hypot(d.x, d.y)) * d; };
  const Point2 bisector = unit(unit(a - vertex) + unit(b - vertex));
  // Thousands of radii: a one-hypot shortcut without its 1e-9 margin picks
  // the wrong segment on a handful of these.
  Rng rng(5);
  std::vector<double> radii{1e-12, 1e-6};
  for (int i = 0; i < 2000; ++i) radii.push_back(rng.uniform(0.01, 20.0));
  for (const double r : radii) {
    for (const double side : {1.0, -1.0}) {
      // Points on the bisector are equidistant from both segments; nudge
      // each by a few ulps either way so the two distances nearly tie.
      const Point2 on = vertex + (side * r) * bisector;
      for (int ulps = -4; ulps <= 4; ++ulps) {
        const double toward = ulps > 0 ? 1e300 : -1e300;
        Point2 px = on;
        Point2 py = on;
        for (int k = 0; k < std::abs(ulps); ++k) {
          px.x = std::nextafter(px.x, toward);
          py.y = std::nextafter(py.y, toward);
        }
        expect_matches_oracle(px, a, vertex, b);
        expect_matches_oracle(py, a, vertex, b);
      }
    }
  }
}

TEST(DistanceToPathTest, MatchesOracleAtTheVertex) {
  const Point2 a{10, 50};
  const Point2 vertex{52.3, 40.1};
  const Point2 b{60, 8};
  expect_matches_oracle(vertex, a, vertex, b);
  EXPECT_EQ(distance_to_path(vertex, a, vertex, b), 0.0);
}

TEST(DistanceToPathTest, MatchesOracleOnZeroLengthSegments) {
  const Point2 a{10, 50};
  const Point2 b{60, 8};
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    const Point2 p{rng.uniform(0.0, 70.0), rng.uniform(0.0, 60.0)};
    expect_matches_oracle(p, a, a, b);  // vertex == anchor A
    expect_matches_oracle(p, a, b, b);  // vertex == anchor B
    expect_matches_oracle(p, a, a, a);  // both segments degenerate
  }
  expect_matches_oracle(a, a, a, b);
  expect_matches_oracle(b, a, b, b);
}

TEST(DistanceToPathTest, MatchesOracleWhereSquaresUnderflowOrOverflow) {
  Rng rng(11);
  for (const double scale : {1e-160, 3e-155, 1e-162, 1e-170, 1e150, 1e160}) {
    for (int i = 0; i < 500; ++i) {
      const Point2 a{0.0, scale * rng.uniform(1.0, 2.0)};
      const Point2 b{scale * rng.uniform(1.0, 2.0), 0.0};
      const Point2 vertex{scale * rng.uniform(0.0, 1.0),
                          scale * rng.uniform(0.0, 1.0)};
      const Point2 p{scale * rng.uniform(-1.0, 3.0),
                     scale * rng.uniform(-1.0, 3.0)};
      expect_matches_oracle(p, a, vertex, b);
    }
  }
}

TEST(PiecewiseFitTest, RecoversCleanVertex) {
  const PathSpec spec;
  const auto fit =
      fit_piecewise_linear(path_points(spec), spec.anchor_a, spec.anchor_b);
  ASSERT_TRUE(fit.has_value()) << fit.reason();
  EXPECT_NEAR(fit->intersection.x, spec.vertex.x, 1.0);
  EXPECT_NEAR(fit->intersection.y, spec.vertex.y, 1.0);
  EXPECT_LT(fit->rms_residual, 0.6);
}

TEST(PiecewiseFitTest, SlopesMatchSegments) {
  const PathSpec spec;
  const auto fit =
      fit_piecewise_linear(path_points(spec), spec.anchor_a, spec.anchor_b);
  ASSERT_TRUE(fit.has_value());
  const double expected_shallow =
      (spec.vertex.y - spec.anchor_a.center().y) /
      (spec.vertex.x - spec.anchor_a.center().x);
  const double expected_steep =
      (spec.anchor_b.center().y - spec.vertex.y) /
      (spec.anchor_b.center().x - spec.vertex.x);
  EXPECT_NEAR(fit->slope_shallow, expected_shallow, 0.05);
  EXPECT_NEAR(fit->slope_steep, expected_steep, 0.8);
  EXPECT_LT(fit->slope_steep, fit->slope_shallow);
}

TEST(PiecewiseFitTest, ToleratesJitter) {
  const PathSpec spec;
  const auto fit = fit_piecewise_linear(path_points(spec, 0.8),
                                        spec.anchor_a, spec.anchor_b);
  ASSERT_TRUE(fit.has_value());
  EXPECT_NEAR(fit->intersection.x, spec.vertex.x, 2.5);
  EXPECT_NEAR(fit->intersection.y, spec.vertex.y, 2.5);
}

TEST(PiecewiseFitTest, HuberResistsOutliers) {
  const PathSpec spec;
  auto points = path_points(spec);
  // A handful of gross outliers in the triangle interior.
  points.push_back({30, 48});
  points.push_back({35, 47});
  points.push_back({55, 30});
  PiecewiseFitOptions robust;
  robust.huber_delta_px = 1.5;
  const auto fit =
      fit_piecewise_linear(points, spec.anchor_a, spec.anchor_b, robust);
  ASSERT_TRUE(fit.has_value());
  EXPECT_NEAR(fit->intersection.x, spec.vertex.x, 2.0);
  EXPECT_NEAR(fit->intersection.y, spec.vertex.y, 2.0);

  PiecewiseFitOptions plain;
  plain.huber_delta_px = 0.0;
  const auto lsq =
      fit_piecewise_linear(points, spec.anchor_a, spec.anchor_b, plain);
  ASSERT_TRUE(lsq.has_value());
  const double robust_err = std::hypot(fit->intersection.x - spec.vertex.x,
                                       fit->intersection.y - spec.vertex.y);
  const double plain_err = std::hypot(lsq->intersection.x - spec.vertex.x,
                                      lsq->intersection.y - spec.vertex.y);
  EXPECT_LE(robust_err, plain_err + 0.25);
}

TEST(PiecewiseFitTest, VerticalResidualModeWorksOnCleanPath) {
  const PathSpec spec;
  PiecewiseFitOptions opt;
  opt.residual = FitResidual::kVertical;
  const auto fit =
      fit_piecewise_linear(path_points(spec), spec.anchor_a, spec.anchor_b, opt);
  ASSERT_TRUE(fit.has_value());
  EXPECT_NEAR(fit->intersection.x, spec.vertex.x, 2.0);
}

TEST(PiecewiseFitTest, TooFewPointsFails) {
  const PathSpec spec;
  const auto fit = fit_piecewise_linear({{20, 45}, {50, 20}}, spec.anchor_a,
                                        spec.anchor_b);
  EXPECT_FALSE(fit.has_value());
  EXPECT_EQ(fit.status().code(), ErrorCode::kFitFailed);
  EXPECT_EQ(fit.reason(), "piecewise fit needs at least 3 transition points");
}

TEST(PiecewiseFitTest, PositiveSlopeDataFails) {
  // Points along a positively sloped line: violates the slope priors.
  std::vector<Pixel> points;
  for (int i = 0; i < 20; ++i) points.push_back({12 + 2 * i, 10 + 2 * i});
  const auto fit = fit_piecewise_linear(points, {10, 50}, {60, 8});
  EXPECT_FALSE(fit.has_value());
}

TEST(PiecewiseFitTest, InvalidAnchorsThrow) {
  EXPECT_THROW(
      fit_piecewise_linear({{1, 1}, {2, 2}, {3, 3}}, {50, 10}, {10, 50}),
      ContractViolation);
}

// Property sweep over vertex positions: the fit must recover any vertex
// well inside the anchor box.
class VertexRecoveryProperty
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(VertexRecoveryProperty, RecoversVertex) {
  PathSpec spec;
  spec.vertex = {GetParam().first, GetParam().second};
  const auto fit =
      fit_piecewise_linear(path_points(spec), spec.anchor_a, spec.anchor_b);
  ASSERT_TRUE(fit.has_value()) << fit.reason();
  EXPECT_NEAR(fit->intersection.x, spec.vertex.x, 1.5);
  EXPECT_NEAR(fit->intersection.y, spec.vertex.y, 1.5);
}

INSTANTIATE_TEST_SUITE_P(
    VertexGrid, VertexRecoveryProperty,
    ::testing::Values(std::pair{40.0, 45.0}, std::pair{50.0, 42.0},
                      std::pair{55.0, 35.0}, std::pair{45.0, 30.0},
                      std::pair{58.0, 20.0}, std::pair{30.0, 46.0}));

// Golden pins: bit-exact outputs recorded from the original
// std::function/std::vector Nelder-Mead fit. Any rewrite of the fit or its
// optimizer must replay the same floating-point operation sequence.
struct GoldenFit {
  const char* name;
  double x, y, slope_shallow, slope_steep, rms;
  int iterations;
};

constexpr GoldenFit kGoldenFits[] = {
    {"clean", 0x1.9ec848bb0208p+5, 0x1.43c92a770aacfp+5, -0x1.d23bb750890b6p-3, -0x1.fddef95b29272p+1, 0x1.47ecd7a0207b8p-2, 72},
    {"jitter", 0x1.a48dc7de36142p+5, 0x1.3b4a132401dcbp+5, -0x1.fd6d604e11e76p-3, -0x1.0e8a08aa438b3p+2, 0x1.9aab7f36bc31cp-1, 71},
    {"outliers_huber", 0x1.9eb3cd4138317p+5, 0x1.45dca2e848656p+5, -0x1.c5a43fc06e552p-3, -0x1.00a86daea3774p+2, 0x1.42d144462753dp-1, 71},
    {"outliers_plain", 0x1.9e64b54a7ee6ep+5, 0x1.4719d2dbca3aep+5, -0x1.be78ed63477b8p-3, -0x1.00a86da1229ffp+2, 0x1.416db03980921p-1, 71},
    {"jitter_plain", 0x1.a491e33838123p+5, 0x1.3b38b6f9ea0e4p+5, -0x1.fdcfa072411efp-3, -0x1.0e8a08c10d1bcp+2, 0x1.9aaab7ca2aae3p-1, 72},
    {"vertical_clean", 0x1.9e21b4a333031p+5, 0x1.43f1d72274608p+5, -0x1.d22ad8801d2e2p-3, -0x1.f924924ce863fp+1, 0x1.494cd1d4f618ep-2, 70},
    {"vertical_jitter", 0x1.a328fdc9aba01p+5, 0x1.39ff2061f43eap+5, -0x1.03a9d91e16e34p-2, -0x1.06fb587501be4p+2, 0x1.9ed2725f1acb6p-1, 72},
    {"vertical_outliers", 0x1.9e2be2a35409dp+5, 0x1.45fde97149ef8p+5, -0x1.c590d33b00c85p-3, -0x1.fd6db6e1e2b72p+1, 0x1.4304701beea61p-1, 74},
    {"grid_40_45", 0x1.3ec6e39c123e8p+5, 0x1.6a252cd07f3f8p+5, -0x1.44aea111ea40dp-3, -0x1.d969d641dc4bap+0, 0x1.ca548a38e22bap-3, 76},
    {"grid_50_42", 0x1.93b7f25aac982p+5, 0x1.4efbed6e57a3ep+5, -0x1.9b5273180f851p-3, -0x1.c6b5d55885e11p+1, 0x1.28925487abd19p-2, 74},
    {"grid_55_35", 0x1.b94260bf2cef7p+5, 0x1.19fcfac8b658dp+5, -0x1.4e8204e98975ap-2, -0x1.681e52c3b73f3p+2, 0x1.5696913860962p-2, 78},
    {"grid_45_30", 0x1.6b32766696c49p+5, 0x1.de134780ef029p+4, -0x1.230221e93e06ep-1, -0x1.7fa27c8ac6707p+0, 0x1.bcb0e4efc932bp-3, 86},
    {"grid_58_20", 0x1.cf6b6f40bad2cp+5, 0x1.4783441dc2f7p+4, -0x1.3b77dfb47741ap-1, -0x1.810f20c8f68b3p+2, 0x1.204b31fcf87f3p-2, 79},
    {"grid_30_46", 0x1.e874f0761b0d1p+4, 0x1.6ede29b7fc15p+5, -0x1.9d2c387bc460fp-3, -0x1.48da5435701dp+0, 0x1.38b8476d24de6p-2, 82},
};

/// The fit input behind each golden pin: the clean, jittered and outlier
/// point sets, Huber on and off, both residual modes, and the vertex grid.
std::tuple<std::vector<Pixel>, PathSpec, PiecewiseFitOptions> golden_input(
    const std::string& name) {
  PathSpec spec;
  PiecewiseFitOptions opt;
  if (name.starts_with("vertical_")) opt.residual = FitResidual::kVertical;
  if (name.ends_with("_plain")) opt.huber_delta_px = 0.0;
  if (name.starts_with("grid_")) {
    spec.vertex.x = std::stod(name.substr(5, 2));
    spec.vertex.y = std::stod(name.substr(8, 2));
  }
  if (name.find("jitter") != std::string::npos)
    return {path_points(spec, 0.8), spec, opt};
  auto points = path_points(spec);
  if (name.find("outliers") != std::string::npos) {
    points.push_back({30, 48});
    points.push_back({35, 47});
    points.push_back({55, 30});
  }
  return {points, spec, opt};
}

TEST(PiecewiseFitGoldenTest, CorpusIsBitIdentical) {
  for (const GoldenFit& golden : kGoldenFits) {
    SCOPED_TRACE(golden.name);
    const auto [points, spec, opt] = golden_input(golden.name);
    const auto fit =
        fit_piecewise_linear(points, spec.anchor_a, spec.anchor_b, opt);
    ASSERT_TRUE(fit.has_value()) << fit.reason();
    EXPECT_EQ(fit->intersection.x, golden.x);
    EXPECT_EQ(fit->intersection.y, golden.y);
    EXPECT_EQ(fit->slope_shallow, golden.slope_shallow);
    EXPECT_EQ(fit->slope_steep, golden.slope_steep);
    EXPECT_EQ(fit->rms_residual, golden.rms);
    EXPECT_EQ(fit->iterations, golden.iterations);
  }
}

struct GoldenSuiteFit {
  int index;
  double slope_steep, slope_shallow, intersection_x, intersection_y;
};

constexpr GoldenSuiteFit kGoldenSuite[] = {
    {1, -0x1.a113d604cd422p+1, -0x1.08b891c2f7009p+0, 0x1.295a9f484617ap-7, 0x1.dd53de8b0e03cp-6},
    {2, -0x1.af22330615bffp+1, -0x1.57bc471edc507p-1, 0x1.1de02019a3472p-5, 0x1.56dedbd014a08p-5},
    {3, -0x1.5614403bc4c8cp+2, -0x1.65699b3ff25b7p-3, 0x1.e035bdd983dedp-6, 0x1.6f2d21543823dp-6},
    {4, -0x1.a6c15a322cd5bp+1, -0x1.089dd53ddb743p-2, 0x1.b0ff2c322b2a1p-6, 0x1.54ca036148886p-6},
    {5, -0x1.e1cf7f6e11f4p+1, -0x1.0703b984083a5p-2, 0x1.baa1587159db7p-6, 0x1.52d7e3bd57ed1p-6},
    {6, -0x1.e1200a53df789p+1, -0x1.1cdd6655092fap-2, 0x1.fafa9fc47c6f8p-6, 0x1.95b1b649fbfa2p-6},
    {7, -0x1.12d9584c6d26ep+2, -0x1.ee02a56fc4edbp-3, 0x1.cc737131c8e12p-6, 0x1.87e7903445ceep-6},
    {8, -0x1.30f1a703202efp+2, -0x1.ce099af187c82p-3, 0x1.c5f1d3f176d98p-6, 0x1.8c9d8cd15d409p-6},
    {9, -0x1.3b4ae94db41f3p+2, -0x1.26d5aa13d331dp-2, 0x1.d12a8567eccf7p-6, 0x1.5f6c63ba95ae7p-6},
    {10, -0x1.d41547afe2887p+1, -0x1.118de3446f922p-2, 0x1.a942aa5b6a2cdp-6, 0x1.67c1f01bc2df8p-6},
    {11, -0x1.e4287b09803d9p+1, -0x1.9c179790cfde1p-3, 0x1.b495960f327cbp-6, 0x1.b68bf08c8c8f1p-6},
    {12, -0x1.ee8ce62d31cccp+1, -0x1.0b6ee05f81dbfp-2, 0x1.86c0421fc1045p-6, 0x1.7f29a6b44bea8p-6},
};

TEST(PiecewiseFitGoldenTest, QflowSuiteSlopesAreBitIdentical) {
  const std::vector<QflowBenchmark> suite = build_qflow_suite();
  ASSERT_EQ(suite.size(), std::size(kGoldenSuite));
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const GoldenSuiteFit& golden = kGoldenSuite[i];
    SCOPED_TRACE(suite[i].name());
    ASSERT_EQ(suite[i].spec.index, golden.index);
    auto playback = make_playback(suite[i]);
    const FastExtractionResult result = run_fast_extraction(
        *playback, suite[i].csd.x_axis(), suite[i].csd.y_axis());
    ASSERT_TRUE(result.status.ok()) << result.status.message();
    EXPECT_EQ(result.slope_steep, golden.slope_steep);
    EXPECT_EQ(result.slope_shallow, golden.slope_shallow);
    EXPECT_EQ(result.intersection_voltage.x, golden.intersection_x);
    EXPECT_EQ(result.intersection_voltage.y, golden.intersection_y);
  }
}

}  // namespace
}  // namespace qvg
