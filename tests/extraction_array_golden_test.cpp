// Golden pins for the n-dot array walk above the exhaustive dot limit:
// every deterministic field of extract_array_virtualization's report on a
// 10-dot and three 16-dot jittered arrays, with white noise off and on. The
// pins were recorded from the annealing-only probe path; charge-solver
// rewrites must reproduce them exactly (floats are pinned as hex floats, so
// "exactly" means bit for bit).
//
// Each report renders to one line per field group: overall status, band
// error, one line per matrix row, one line per pair (status, gates,
// verdict, ProbeStats without the wall-clock compute_seconds). On a
// mismatch the test prints the rendered report in the pin format.
#include "extraction/array_extractor.hpp"

#include "test_support.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

namespace qvg {
namespace {

const bool g_force_threads = testsupport::force_multithread_pool();

std::string hex(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

std::string render_status(const Status& s) {
  std::string out = error_code_name(s.code());
  if (!s.ok()) out += "/" + s.stage() + "/" + s.detail();
  return out;
}

std::vector<std::string> render(const ArrayExtractionResult& r) {
  std::vector<std::string> lines;
  lines.push_back("status " + render_status(r.status));
  lines.push_back("band " + hex(r.band_max_error));
  for (std::size_t i = 0; i < r.matrix.rows(); ++i) {
    std::string row = "row";
    for (std::size_t j = 0; j < r.matrix.cols(); ++j)
      row += " " + hex(r.matrix(i, j));
    lines.push_back(row);
  }
  for (const PairExtraction& p : r.pairs) {
    const Verdict& v = p.verdict;
    lines.push_back(
        "pair " + std::to_string(p.pair_index) + " " + render_status(p.status) +
        " gates " + hex(p.gates.alpha12) + " " + hex(p.gates.alpha21) +
        " verdict " + (v.success ? "1" : "0") + "/" + v.reason + "/" +
        hex(v.alpha12_rel_error) + "/" + hex(v.alpha21_rel_error) + "/" +
        hex(v.virtualized_angle_deg) + " stats " +
        std::to_string(p.stats.unique_probes) + "/" +
        std::to_string(p.stats.total_requests) + "/" +
        hex(p.stats.simulated_seconds));
  }
  return lines;
}

struct GoldenCase {
  std::size_t dots;
  std::uint64_t jitter_seed;
  std::size_t pixels;
  double white_noise_sigma;
  std::vector<std::string> pin;
};

void expect_matches_pin(const GoldenCase& c) {
  DotArrayParams params;
  params.n_dots = c.dots;
  params.jitter = 0.04;
  Rng rng(c.jitter_seed);
  const BuiltDevice device = build_dot_array(params, &rng);
  ArrayExtractionOptions opt;
  opt.pixels_per_axis = c.pixels;
  opt.white_noise_sigma = c.white_noise_sigma;
  const std::vector<std::string> got =
      render(extract_array_virtualization(device, opt));

  bool same = got.size() == c.pin.size();
  for (std::size_t i = 0; same && i < got.size(); ++i)
    same = got[i] == c.pin[i];
  if (same) return;
  std::string dump;
  for (const std::string& line : got) dump += "      \"" + line + "\",\n";
  for (std::size_t i = 0; i < got.size() && i < c.pin.size(); ++i)
    EXPECT_EQ(got[i], c.pin[i]) << "line " << i;
  ADD_FAILURE() << c.dots << " dots, jitter seed " << c.jitter_seed
                << ", sigma " << c.white_noise_sigma << " rendered "
                << got.size() << " lines (pin has " << c.pin.size()
                << "):\n"
                << dump;
}

const GoldenCase kCases[] = {
    {10, 33, 24, 0.0, {
         "status ok",
         "band 0x1.1b4c9a0b96d8dp-3",
         "row 0x1p+0 0x1.6abc92a8d810ep-2 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0 0x0p+0",
         "row 0x1.25ade8f3c6629p-2 0x1p+0 0x1.c4fa9e439ef88p-3 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0",
         "row 0x0p+0 0x1.526366cb99e3p-2 0x1p+0 0x1.5263669ad7bcfp-2 0x0p+0 "
         "0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x1.537f79315b28p-3 0x1p+0 0x1.537f7972f1a4fp-3 "
         "0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x1.25ade900655d5p-2 0x1p+0 "
         "0x1.2647744ea26b6p-2 0x0p+0 0x0p+0 0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x1.537f7934e90a5p-3 0x1p+0 "
         "0x1.537f78d219e84p-3 0x0p+0 0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x1.2647745c0ec73p-2 0x1p+0 "
         "0x1.2647744ea26b6p-2 0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x1.537f7934e90a5p-3 "
         "0x1p+0 0x1.c1d0f64b2f2eap-3 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x1.264774249b0c5p-2 0x1p+0 0x1.2647747966e52p-2",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x1.780ff2a9ca6d6p-4 0x1p+0",
         "pair 0 ok gates 0x1.6abc92a8d810ep-2 0x1.25ade8f3c6629p-2 verdict "
         "0/alpha12 error 0.448124 > 0.25; "
         "/0x1.cae0ff06a4283p-2/0x1.ae24084fa32a3p-3/0x1.40a9e8e7aeef4p+6 "
         "stats 207/881/0x1.4b3333333333ap+3",
         "pair 1 ok gates 0x1.c4fa9e439ef88p-3 0x1.526366cb99e3p-2 verdict "
         "0/alpha21 error 0.335678 > 0.25; "
         "/0x1.23fe6335702a6p-5/0x1.57bbf6f02bf6ep-2/0x1.55f182bca78b5p+6 "
         "stats 204/869/0x1.466666666666cp+3",
         "pair 2 ok gates 0x1.5263669ad7bcfp-2 0x1.537f79315b28p-3 verdict "
         "0/alpha12 error 0.353068 > 0.25; alpha21 error 0.272781 > 0.25; "
         "/0x1.698aabceeb09ap-2/0x1.1753fe3655751p-2/0x1.62d8fee2fb5a1p+6 "
         "stats 205/872/0x1.4800000000006p+3",
         "pair 3 ok gates 0x1.537f7972f1a4fp-3 0x1.25ade900655d5p-2 verdict "
         "0/alpha12 error 0.291238 > 0.25; "
         "/0x1.2a3a462fd7191p-2/0x1.dd692adefea5ep-4/0x1.5e75c7c9b6999p+6 "
         "stats 206/875/0x1.49999999999ap+3",
         "pair 4 ok gates 0x1.2647744ea26b6p-2 0x1.537f7934e90a5p-3 verdict "
         "0/alpha21 error 0.331303 > 0.25; "
         "/0x1.ce5d3052fc968p-4/0x1.5341014f3b731p-2/0x1.5ac35cf4667ebp+6 "
         "stats 202/854/0x1.4333333333338p+3",
         "pair 5 ok gates 0x1.537f78d219e84p-3 0x1.2647745c0ec73p-2 verdict "
         "0/alpha12 error 0.304254 > 0.25; "
         "/0x1.378e6e565c9e5p-2/0x1.80723b9be53a6p-3/0x1.61097e672a086p+6 "
         "stats 202/854/0x1.4333333333338p+3",
         "pair 6 ok gates 0x1.2647744ea26b6p-2 0x1.537f7934e90a5p-3 verdict "
         "0/alpha21 error 0.289899 > 0.25; "
         "/0x1.b6044bc62f82p-3/0x1.28db3f2bf21aep-2/0x1.637891a12657p+6 "
         "stats 202/854/0x1.4333333333338p+3",
         "pair 7 ok gates 0x1.c1d0f64b2f2eap-3 0x1.264774249b0c5p-2 verdict "
         "1/within "
         "tolerance/0x1.ce8d19821abb5p-4/0x1.451c61909e928p-3/0x1.655c07a98a3c6p+6 "
         "stats 197/842/0x1.3b33333333336p+3",
         "pair 8 ok gates 0x1.2647747966e52p-2 0x1.780ff2a9ca6d6p-4 verdict "
         "0/alpha21 error 0.601063 > 0.25; "
         "/0x1.8d6b779c71b25p-3/0x1.33be85edfaa13p-1/0x1.513bfc85af4efp+6 "
         "stats 198/845/0x1.3ccccccccccdp+3",
    }},
    {10, 33, 24, 0.02, {
         "status ok",
         "band 0x1.1b4c9a0b96d8dp-3",
         "row 0x1p+0 0x1.6abc92a8d810ep-2 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0 0x0p+0",
         "row 0x1.25ade8f3c6629p-2 0x1p+0 0x1.c4fa9e439ef88p-3 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0",
         "row 0x0p+0 0x1.526366cb99e3p-2 0x1p+0 0x1.5263669ad7bcfp-2 0x0p+0 "
         "0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x1.537f79315b28p-3 0x1p+0 0x1.537f7972f1a4fp-3 "
         "0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x1.25ade900655d5p-2 0x1p+0 "
         "0x1.2647744ea26b6p-2 0x0p+0 0x0p+0 0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x1.537f7934e90a5p-3 0x1p+0 "
         "0x1.537f78d219e84p-3 0x0p+0 0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x1.2647745c0ec73p-2 0x1p+0 "
         "0x1.2647744ea26b6p-2 0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x1.537f7934e90a5p-3 "
         "0x1p+0 0x1.c1d0f64b2f2eap-3 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x1.264774249b0c5p-2 0x1p+0 0x1.2647747966e52p-2",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x1.780ff2a9ca6d6p-4 0x1p+0",
         "pair 0 ok gates 0x1.6abc92a8d810ep-2 0x1.25ade8f3c6629p-2 verdict "
         "0/alpha12 error 0.448124 > 0.25; "
         "/0x1.cae0ff06a4283p-2/0x1.ae24084fa32a3p-3/0x1.40a9e8e7aeef4p+6 "
         "stats 207/881/0x1.4b3333333333ap+3",
         "pair 1 ok gates 0x1.c4fa9e439ef88p-3 0x1.526366cb99e3p-2 verdict "
         "0/alpha21 error 0.335678 > 0.25; "
         "/0x1.23fe6335702a6p-5/0x1.57bbf6f02bf6ep-2/0x1.55f182bca78b5p+6 "
         "stats 204/869/0x1.466666666666cp+3",
         "pair 2 ok gates 0x1.5263669ad7bcfp-2 0x1.537f79315b28p-3 verdict "
         "0/alpha12 error 0.353068 > 0.25; alpha21 error 0.272781 > 0.25; "
         "/0x1.698aabceeb09ap-2/0x1.1753fe3655751p-2/0x1.62d8fee2fb5a1p+6 "
         "stats 205/872/0x1.4800000000006p+3",
         "pair 3 ok gates 0x1.537f7972f1a4fp-3 0x1.25ade900655d5p-2 verdict "
         "0/alpha12 error 0.291238 > 0.25; "
         "/0x1.2a3a462fd7191p-2/0x1.dd692adefea5ep-4/0x1.5e75c7c9b6999p+6 "
         "stats 206/875/0x1.49999999999ap+3",
         "pair 4 ok gates 0x1.2647744ea26b6p-2 0x1.537f7934e90a5p-3 verdict "
         "0/alpha21 error 0.331303 > 0.25; "
         "/0x1.ce5d3052fc968p-4/0x1.5341014f3b731p-2/0x1.5ac35cf4667ebp+6 "
         "stats 202/854/0x1.4333333333338p+3",
         "pair 5 ok gates 0x1.537f78d219e84p-3 0x1.2647745c0ec73p-2 verdict "
         "0/alpha12 error 0.304254 > 0.25; "
         "/0x1.378e6e565c9e5p-2/0x1.80723b9be53a6p-3/0x1.61097e672a086p+6 "
         "stats 202/854/0x1.4333333333338p+3",
         "pair 6 ok gates 0x1.2647744ea26b6p-2 0x1.537f7934e90a5p-3 verdict "
         "0/alpha21 error 0.289899 > 0.25; "
         "/0x1.b6044bc62f82p-3/0x1.28db3f2bf21aep-2/0x1.637891a12657p+6 "
         "stats 202/854/0x1.4333333333338p+3",
         "pair 7 ok gates 0x1.c1d0f64b2f2eap-3 0x1.264774249b0c5p-2 verdict "
         "1/within "
         "tolerance/0x1.ce8d19821abb5p-4/0x1.451c61909e928p-3/0x1.655c07a98a3c6p+6 "
         "stats 197/842/0x1.3b33333333336p+3",
         "pair 8 ok gates 0x1.2647747966e52p-2 0x1.780ff2a9ca6d6p-4 verdict "
         "0/alpha21 error 0.601063 > 0.25; "
         "/0x1.8d6b779c71b25p-3/0x1.33be85edfaa13p-1/0x1.513bfc85af4efp+6 "
         "stats 198/845/0x1.3ccccccccccdp+3",
    }},
    {16, 161, 32, 0.0, {
         "status ok",
         "band 0x1.bc86c5683b498p-4",
         "row 0x1p+0 0x1.e3779b8b2b1cep-3 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0",
         "row 0x1.05996ed948e46p-2 0x1p+0 0x1.e3779bd1bb867p-3 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0",
         "row 0x0p+0 0x1.0a91bd6f22fa3p-2 0x1p+0 0x1.19e778507644p-2 0x0p+0 "
         "0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x1.19e7786990a83p-2 0x1p+0 0x1.4294c2802cd08p-2 "
         "0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x1.430d0903e38cp-3 0x1p+0 "
         "0x1.05e2f0e75bc85p-3 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0 0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x1.19e7788af5431p-2 0x1p+0 "
         "0x1.2b04ac163d896p-2 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x1.430d08e4ad7b9p-3 0x1p+0 "
         "0x1.7f29afee1aeb8p-3 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x1.e3779b799abddp-3 "
         "0x1p+0 0x1.e3779bd296921p-3 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x1.19e7785f2d82cp-2 0x1p+0 0x1.e9e816c39a6fep-3 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0 0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x1.38d6cb1155d4dp-2 0x1p+0 0x1.410385457d79cp-2 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x1.38d6cb37e02dcp-2 0x1p+0 0x1.4103854991315p-2 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x1.05e2f11aa0b0cp-3 0x1p+0 0x1.430d09372f1dep-3 0x0p+0 "
         "0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0 0x1.c658f1d732e09p-3 0x1p+0 0x1.93c5edf71ddd5p-3 "
         "0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0 0x0p+0 0x1.430d0916d7e13p-3 0x1p+0 "
         "0x1.7f29afee1aeb8p-3 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x1.e3779b799abddp-3 0x1p+0 "
         "0x1.db6822637d3a8p-3",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x1.05e2f0da49bdcp-3 0x1p+0",
         "pair 0 ok gates 0x1.e3779b8b2b1cep-3 0x1.05996ed948e46p-2 verdict "
         "1/within "
         "tolerance/0x1.eddedb1735a03p-7/0x1.4bfe8e1ba5387p-6/0x1.65d3e7bb28c44p+6 "
         "stats 283/1188/0x1.c4cccccccccf2p+3",
         "pair 1 ok gates 0x1.e3779bd1bb867p-3 0x1.0a91bd6f22fa3p-2 verdict "
         "1/within "
         "tolerance/0x1.0b66f2eb70c0dp-4/0x1.583913d9ad4dbp-5/0x1.668325ababe2fp+6 "
         "stats 268/1140/0x1.accccccccccecp+3",
         "pair 2 ok gates 0x1.19e778507644p-2 0x1.19e7786990a83p-2 verdict "
         "1/within "
         "tolerance/0x1.c58e2959aa5e5p-5/0x1.ef07ee6c525c9p-4/0x1.5d23e830b53c6p+6 "
         "stats 263/1128/0x1.a4ccccccccceap+3",
         "pair 3 ok gates 0x1.4294c2802cd08p-2 0x1.430d0903e38cp-3 verdict "
         "0/alpha12 error 0.319837 > 0.25; alpha21 error 0.363681 > 0.25; "
         "/0x1.4783391b31d17p-2/0x1.7468e87d0f231p-2/0x1.63cd115b93967p+6 "
         "stats 262/1113/0x1.a33333333335p+3",
         "pair 4 ok gates 0x1.05e2f0e75bc85p-3 0x1.19e7788af5431p-2 verdict "
         "0/alpha12 error 0.45908 > 0.25; "
         "/0x1.d618f206d9647p-2/0x1.245b7a0190c7ep-3/0x1.55a4b10e671afp+6 "
         "stats 263/1116/0x1.a4ccccccccceap+3",
         "pair 5 ok gates 0x1.2b04ac163d896p-2 0x1.430d08e4ad7b9p-3 verdict "
         "0/alpha21 error 0.366354 > 0.25; "
         "/0x1.89dfc8326e3b1p-3/0x1.77259d027df8dp-2/0x1.5cc0760361674p+6 "
         "stats 265/1131/0x1.a80000000001ep+3",
         "pair 6 ok gates 0x1.7f29afee1aeb8p-3 0x1.e3779b799abddp-3 verdict "
         "1/within "
         "tolerance/0x1.fb20b544ecff9p-3/0x1.3611ad9801021p-4/0x1.546066e68b5b6p+6 "
         "stats 266/1134/0x1.a9999999999b8p+3",
         "pair 7 ok gates 0x1.e3779bd296921p-3 0x1.19e7785f2d82cp-2 verdict "
         "1/within "
         "tolerance/0x1.1aaae82828e9dp-3/0x1.3263f8baed624p-4/0x1.634f0e742f098p+6 "
         "stats 264/1131/0x1.a666666666684p+3",
         "pair 8 ok gates 0x1.e9e816c39a6fep-3 0x1.38d6cb1155d4dp-2 verdict "
         "0/alpha21 error 0.299578 > 0.25; "
         "/0x1.0c0e438824dbap-5/0x1.32c4b0e3122b8p-2/0x1.58ef8c2e40572p+6 "
         "stats 268/1140/0x1.accccccccccecp+3",
         "pair 9 ok gates 0x1.410385457d79cp-2 0x1.38d6cb37e02dcp-2 verdict "
         "0/alpha12 error 0.309234 > 0.25; "
         "/0x1.3ca7cc388fc65p-2/0x1.a87435decee4dp-3/0x1.48b02029cdba4p+6 "
         "stats 271/1158/0x1.b1999999999bap+3",
         "pair 10 ok gates 0x1.4103854991315p-2 0x1.05e2f11aa0b0cp-3 verdict "
         "0/alpha21 error 0.431884 > 0.25; "
         "/0x1.e8d260b12d39dp-3/0x1.ba3feda0e9db8p-2/0x1.5e67b028a6ae4p+6 "
         "stats 270/1143/0x1.b00000000002p+3",
         "pair 11 ok gates 0x1.430d09372f1dep-3 0x1.c658f1d732e09p-3 verdict "
         "0/alpha12 error 0.329243 > 0.25; "
         "/0x1.512508579d20cp-2/0x1.42fa9acfd830bp-3/0x1.4b64ca4a96246p+6 "
         "stats 264/1116/0x1.a666666666684p+3",
         "pair 12 ok gates 0x1.93c5edf71ddd5p-3 0x1.430d0916d7e13p-3 verdict "
         "0/alpha21 error 0.346791 > 0.25; "
         "/0x1.f3fa0196622d6p-3/0x1.631d4782c95b1p-2/0x1.44b3afc22c566p+6 "
         "stats 264/1113/0x1.a666666666684p+3",
         "pair 13 ok gates 0x1.7f29afee1aeb8p-3 0x1.e3779b799abddp-3 verdict "
         "1/within "
         "tolerance/0x1.bba251c31d3f2p-3/0x1.975ff46da99ffp-4/0x1.552a7858663c2p+6 "
         "stats 266/1134/0x1.a9999999999b8p+3",
         "pair 14 ok gates 0x1.db6822637d3a8p-3 0x1.05e2f0da49bdcp-3 verdict "
         "0/alpha21 error 0.450471 > 0.25; "
         "/0x1.30e43fafee936p-4/0x1.cd483668a286ep-2/0x1.4a49af44ffbb5p+6 "
         "stats 267/1134/0x1.ab33333333352p+3",
    }},
    {16, 161, 32, 0.02, {
         "status ok",
         "band 0x1.bc86c5683b498p-4",
         "row 0x1p+0 0x1.e3779b8b2b1cep-3 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0",
         "row 0x1.05996ed948e46p-2 0x1p+0 0x1.e3779bd1bb867p-3 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0",
         "row 0x0p+0 0x1.0a91bd6f22fa3p-2 0x1p+0 0x1.19e778507644p-2 0x0p+0 "
         "0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x1.19e7786990a83p-2 0x1p+0 0x1.4294c2802cd08p-2 "
         "0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x1.430d0903e38cp-3 0x1p+0 "
         "0x1.05e2f0e75bc85p-3 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0 0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x1.19e7788af5431p-2 0x1p+0 "
         "0x1.2b04ac163d896p-2 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x1.430d08e4ad7b9p-3 0x1p+0 "
         "0x1.7f29afee1aeb8p-3 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x1.e3779b799abddp-3 "
         "0x1p+0 0x1.e3779bd296921p-3 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x1.19e7785f2d82cp-2 0x1p+0 0x1.e9e816c39a6fep-3 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0 0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x1.38d6cb1155d4dp-2 0x1p+0 0x1.410385457d79cp-2 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x1.38d6cb37e02dcp-2 0x1p+0 0x1.4103854991315p-2 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x1.05e2f11aa0b0cp-3 0x1p+0 0x1.430d09372f1dep-3 0x0p+0 "
         "0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0 0x1.c658f1d732e09p-3 0x1p+0 0x1.93c5edf71ddd5p-3 "
         "0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0 0x0p+0 0x1.430d0916d7e13p-3 0x1p+0 "
         "0x1.7f29afee1aeb8p-3 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x1.e3779b799abddp-3 0x1p+0 "
         "0x1.db6822637d3a8p-3",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x1.05e2f0da49bdcp-3 0x1p+0",
         "pair 0 ok gates 0x1.e3779b8b2b1cep-3 0x1.05996ed948e46p-2 verdict "
         "1/within "
         "tolerance/0x1.eddedb1735a03p-7/0x1.4bfe8e1ba5387p-6/0x1.65d3e7bb28c44p+6 "
         "stats 283/1188/0x1.c4cccccccccf2p+3",
         "pair 1 ok gates 0x1.e3779bd1bb867p-3 0x1.0a91bd6f22fa3p-2 verdict "
         "1/within "
         "tolerance/0x1.0b66f2eb70c0dp-4/0x1.583913d9ad4dbp-5/0x1.668325ababe2fp+6 "
         "stats 268/1140/0x1.accccccccccecp+3",
         "pair 2 ok gates 0x1.19e778507644p-2 0x1.19e7786990a83p-2 verdict "
         "1/within "
         "tolerance/0x1.c58e2959aa5e5p-5/0x1.ef07ee6c525c9p-4/0x1.5d23e830b53c6p+6 "
         "stats 263/1128/0x1.a4ccccccccceap+3",
         "pair 3 ok gates 0x1.4294c2802cd08p-2 0x1.430d0903e38cp-3 verdict "
         "0/alpha12 error 0.319837 > 0.25; alpha21 error 0.363681 > 0.25; "
         "/0x1.4783391b31d17p-2/0x1.7468e87d0f231p-2/0x1.63cd115b93967p+6 "
         "stats 262/1113/0x1.a33333333335p+3",
         "pair 4 ok gates 0x1.05e2f0e75bc85p-3 0x1.19e7788af5431p-2 verdict "
         "0/alpha12 error 0.45908 > 0.25; "
         "/0x1.d618f206d9647p-2/0x1.245b7a0190c7ep-3/0x1.55a4b10e671afp+6 "
         "stats 263/1116/0x1.a4ccccccccceap+3",
         "pair 5 ok gates 0x1.2b04ac163d896p-2 0x1.430d08e4ad7b9p-3 verdict "
         "0/alpha21 error 0.366354 > 0.25; "
         "/0x1.89dfc8326e3b1p-3/0x1.77259d027df8dp-2/0x1.5cc0760361674p+6 "
         "stats 265/1131/0x1.a80000000001ep+3",
         "pair 6 ok gates 0x1.7f29afee1aeb8p-3 0x1.e3779b799abddp-3 verdict "
         "1/within "
         "tolerance/0x1.fb20b544ecff9p-3/0x1.3611ad9801021p-4/0x1.546066e68b5b6p+6 "
         "stats 266/1134/0x1.a9999999999b8p+3",
         "pair 7 ok gates 0x1.e3779bd296921p-3 0x1.19e7785f2d82cp-2 verdict "
         "1/within "
         "tolerance/0x1.1aaae82828e9dp-3/0x1.3263f8baed624p-4/0x1.634f0e742f098p+6 "
         "stats 264/1131/0x1.a666666666684p+3",
         "pair 8 ok gates 0x1.e9e816c39a6fep-3 0x1.38d6cb1155d4dp-2 verdict "
         "0/alpha21 error 0.299578 > 0.25; "
         "/0x1.0c0e438824dbap-5/0x1.32c4b0e3122b8p-2/0x1.58ef8c2e40572p+6 "
         "stats 268/1140/0x1.accccccccccecp+3",
         "pair 9 ok gates 0x1.410385457d79cp-2 0x1.38d6cb37e02dcp-2 verdict "
         "0/alpha12 error 0.309234 > 0.25; "
         "/0x1.3ca7cc388fc65p-2/0x1.a87435decee4dp-3/0x1.48b02029cdba4p+6 "
         "stats 271/1158/0x1.b1999999999bap+3",
         "pair 10 ok gates 0x1.4103854991315p-2 0x1.05e2f11aa0b0cp-3 verdict "
         "0/alpha21 error 0.431884 > 0.25; "
         "/0x1.e8d260b12d39dp-3/0x1.ba3feda0e9db8p-2/0x1.5e67b028a6ae4p+6 "
         "stats 270/1143/0x1.b00000000002p+3",
         "pair 11 ok gates 0x1.430d09372f1dep-3 0x1.c658f1d732e09p-3 verdict "
         "0/alpha12 error 0.329243 > 0.25; "
         "/0x1.512508579d20cp-2/0x1.42fa9acfd830bp-3/0x1.4b64ca4a96246p+6 "
         "stats 264/1116/0x1.a666666666684p+3",
         "pair 12 ok gates 0x1.93c5edf71ddd5p-3 0x1.430d0916d7e13p-3 verdict "
         "0/alpha21 error 0.346791 > 0.25; "
         "/0x1.f3fa0196622d6p-3/0x1.631d4782c95b1p-2/0x1.44b3afc22c566p+6 "
         "stats 264/1113/0x1.a666666666684p+3",
         "pair 13 ok gates 0x1.7f29afee1aeb8p-3 0x1.e3779b799abddp-3 verdict "
         "1/within "
         "tolerance/0x1.bba251c31d3f2p-3/0x1.975ff46da99ffp-4/0x1.552a7858663c2p+6 "
         "stats 266/1134/0x1.a9999999999b8p+3",
         "pair 14 ok gates 0x1.db6822637d3a8p-3 0x1.05e2f0da49bdcp-3 verdict "
         "0/alpha21 error 0.450471 > 0.25; "
         "/0x1.30e43fafee936p-4/0x1.cd483668a286ep-2/0x1.4a49af44ffbb5p+6 "
         "stats 267/1134/0x1.ab33333333352p+3",
    }},
    {16, 162, 32, 0.0, {
         "status ok",
         "band 0x1.95b600360c4fep-4",
         "row 0x1p+0 0x1.2ddb3735144d5p-2 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0",
         "row 0x1.e91bc931cd8e3p-3 0x1p+0 0x1.e3779bd296921p-3 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0",
         "row 0x0p+0 0x1.19e7785f2d82cp-2 0x1p+0 0x1.19e7787c53d4ep-2 0x0p+0 "
         "0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x1.38d6cb1d208ccp-2 0x1p+0 0x1.410385450e7e5p-2 "
         "0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x1.526366b47db0dp-2 0x1p+0 "
         "0x1.41038536f214ep-2 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0 0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x1.7f29af9943b81p-3 0x1p+0 "
         "0x1.430d092e30fa3p-3 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x1.db6822b15a036p-3 0x1p+0 "
         "0x1.a9188fc12804dp-3 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x1.430d091ed0117p-3 "
         "0x1p+0 0x1.93c5ee01aacp-3 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x1.1f8547c60c2f8p-2 0x1p+0 0x1.38d6cb011bbd1p-2 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0 0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x1.e9e816def704bp-3 0x1p+0 0x1.2b04ac296bde4p-2 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x1.6f1349c981663p-3 0x1p+0 0x1.db68224e9a465p-3 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x1.e3779bab54e65p-3 0x1p+0 0x1.db68225d5d47dp-3 0x0p+0 "
         "0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0 0x1.0a91bd6777c3ep-2 0x1p+0 0x1.e3779b623142ep-3 "
         "0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0 0x0p+0 0x1.db6822828dc5p-3 0x1p+0 "
         "0x1.036357b9d4de8p-2 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x1.19e7787306b49p-2 0x1p+0 "
         "0x1.19e77871258ecp-2",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x1.db68228d8b1dep-3 0x1p+0",
         "pair 0 ok gates 0x1.2ddb3735144d5p-2 0x1.e91bc931cd8e3p-3 verdict "
         "1/within "
         "tolerance/0x1.833d4cdcc14bcp-3/0x1.cf01b8e17f5eep-6/0x1.5af9c703f230bp+6 "
         "stats 281/1179/0x1.c1999999999bep+3",
         "pair 1 ok gates 0x1.e3779bd296921p-3 0x1.19e7785f2d82cp-2 verdict "
         "1/within "
         "tolerance/0x1.ad25d0ee67e65p-9/0x1.3241e3cb847bdp-3/0x1.5f7eaf3da7784p+6 "
         "stats 264/1131/0x1.a666666666684p+3",
         "pair 2 ok gates 0x1.19e7787c53d4ep-2 0x1.38d6cb1d208ccp-2 verdict "
         "1/within "
         "tolerance/0x1.16fc03cc9989ap-3/0x1.8451995fec537p-3/0x1.53d6281b4e823p+6 "
         "stats 263/1128/0x1.a4ccccccccceap+3",
         "pair 3 ok gates 0x1.410385450e7e5p-2 0x1.526366b47db0dp-2 verdict "
         "0/alpha12 error 0.267103 > 0.25; alpha21 error 0.428036 > 0.25; "
         "/0x1.118355015681cp-2/0x1.b64f2ae2b256ap-2/0x1.3f26a24581a45p+6 "
         "stats 266/1134/0x1.a9999999999b8p+3",
         "pair 4 ok gates 0x1.41038536f214ep-2 0x1.7f29af9943b81p-3 verdict "
         "0/alpha12 error 0.318764 > 0.25; alpha21 error 0.280949 > 0.25; "
         "/0x1.4669fa8bee967p-2/0x1.1fb1060159c45p-2/0x1.67ef0a1316e5fp+6 "
         "stats 269/1143/0x1.ae66666666686p+3",
         "pair 5 ok gates 0x1.430d092e30fa3p-3 0x1.db6822b15a036p-3 verdict "
         "0/alpha12 error 0.378396 > 0.25; "
         "/0x1.837a54c52a227p-2/0x1.00acd055a4ca9p-5/0x1.4ee8701194227p+6 "
         "stats 263/1113/0x1.a4ccccccccceap+3",
         "pair 6 ok gates 0x1.a9188fc12804dp-3 0x1.430d091ed0117p-3 verdict "
         "0/alpha21 error 0.380654 > 0.25; "
         "/0x1.0130db50a8153p-3/0x1.85ca37e570547p-2/0x1.4986e8003cc61p+6 "
         "stats 264/1113/0x1.a666666666684p+3",
         "pair 7 ok gates 0x1.93c5ee01aacp-3 0x1.1f8547c60c2f8p-2 verdict "
         "1/within "
         "tolerance/0x1.d9f731f02ddadp-3/0x1.80bccc9fba2cp-3/0x1.6406623997572p+6 "
         "stats 270/1146/0x1.b00000000002p+3",
         "pair 8 ok gates 0x1.38d6cb011bbd1p-2 0x1.e9e816def704bp-3 verdict "
         "1/within "
         "tolerance/0x1.08217fa5401d7p-3/0x1.c98d4c7571fc9p-7/0x1.604a537d76078p+6 "
         "stats 268/1140/0x1.accccccccccecp+3",
         "pair 9 ok gates 0x1.2b04ac296bde4p-2 0x1.6f1349c981663p-3 verdict "
         "0/alpha21 error 0.271443 > 0.25; "
         "/0x1.60499dd43e427p-3/0x1.15f51bdf7be8bp-2/0x1.61d05241ce4d6p+6 "
         "stats 265/1131/0x1.a80000000001ep+3",
         "pair 10 ok gates 0x1.db68224e9a465p-3 0x1.e3779bab54e65p-3 verdict "
         "1/within "
         "tolerance/0x1.2d1a13676a0c8p-4/0x1.af2e0cc3572ddp-5/0x1.6052e74eb33e2p+6 "
         "stats 270/1143/0x1.b00000000002p+3",
         "pair 11 ok gates 0x1.db68225d5d47dp-3 0x1.0a91bd6777c3ep-2 verdict "
         "1/within "
         "tolerance/0x1.ff3209f8915bp-7/0x1.feb6dd55eb332p-7/0x1.67dccfb6c73d5p+6 "
         "stats 274/1158/0x1.b666666666688p+3",
         "pair 12 ok gates 0x1.e3779b623142ep-3 0x1.db6822828dc5p-3 verdict "
         "1/within "
         "tolerance/0x1.e7bb8e4d3a56bp-6/0x1.552950d7a11f7p-5/0x1.63c9e7ce7e07ap+6 "
         "stats 270/1143/0x1.b00000000002p+3",
         "pair 13 ok gates 0x1.036357b9d4de8p-2 0x1.19e7787306b49p-2 verdict "
         "1/within "
         "tolerance/0x1.9bf1ec570f0c2p-5/0x1.adcac0cdd7de2p-5/0x1.67f2fb0164642p+6 "
         "stats 267/1140/0x1.ab33333333352p+3",
         "pair 14 ok gates 0x1.19e77871258ecp-2 0x1.db68228d8b1dep-3 verdict "
         "1/within "
         "tolerance/0x1.0c46e892cd9d7p-4/0x1.8ce21d2070a87p-5/0x1.66c731962f42fp+6 "
         "stats 269/1143/0x1.ae66666666686p+3",
    }},
    {16, 162, 32, 0.02, {
         "status ok",
         "band 0x1.95b600360c4fep-4",
         "row 0x1p+0 0x1.2ddb3735144d5p-2 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0",
         "row 0x1.e91bc931cd8e3p-3 0x1p+0 0x1.e3779bd296921p-3 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0",
         "row 0x0p+0 0x1.19e7785f2d82cp-2 0x1p+0 0x1.19e7787c53d4ep-2 0x0p+0 "
         "0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x1.38d6cb1d208ccp-2 0x1p+0 0x1.410385450e7e5p-2 "
         "0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x1.526366b47db0dp-2 0x1p+0 "
         "0x1.41038536f214ep-2 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0 0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x1.7f29af9943b81p-3 0x1p+0 "
         "0x1.430d092e30fa3p-3 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x1.db6822b15a036p-3 0x1p+0 "
         "0x1.a9188fc12804dp-3 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x1.430d091ed0117p-3 "
         "0x1p+0 0x1.93c5ee01aacp-3 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x1.1f8547c60c2f8p-2 0x1p+0 0x1.38d6cb011bbd1p-2 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0 0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x1.e9e816def704bp-3 0x1p+0 0x1.2b04ac296bde4p-2 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x1.6f1349c981663p-3 0x1p+0 0x1.db68224e9a465p-3 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x1.e3779bab54e65p-3 0x1p+0 0x1.db68225d5d47dp-3 0x0p+0 "
         "0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0 0x1.0a91bd6777c3ep-2 0x1p+0 0x1.e3779b623142ep-3 "
         "0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0 0x0p+0 0x1.db6822828dc5p-3 0x1p+0 "
         "0x1.036357b9d4de8p-2 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x1.19e7787306b49p-2 0x1p+0 "
         "0x1.19e77871258ecp-2",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x1.db68228d8b1dep-3 0x1p+0",
         "pair 0 ok gates 0x1.2ddb3735144d5p-2 0x1.e91bc931cd8e3p-3 verdict "
         "1/within "
         "tolerance/0x1.833d4cdcc14bcp-3/0x1.cf01b8e17f5eep-6/0x1.5af9c703f230bp+6 "
         "stats 281/1179/0x1.c1999999999bep+3",
         "pair 1 ok gates 0x1.e3779bd296921p-3 0x1.19e7785f2d82cp-2 verdict "
         "1/within "
         "tolerance/0x1.ad25d0ee67e65p-9/0x1.3241e3cb847bdp-3/0x1.5f7eaf3da7784p+6 "
         "stats 264/1131/0x1.a666666666684p+3",
         "pair 2 ok gates 0x1.19e7787c53d4ep-2 0x1.38d6cb1d208ccp-2 verdict "
         "1/within "
         "tolerance/0x1.16fc03cc9989ap-3/0x1.8451995fec537p-3/0x1.53d6281b4e823p+6 "
         "stats 263/1128/0x1.a4ccccccccceap+3",
         "pair 3 ok gates 0x1.410385450e7e5p-2 0x1.526366b47db0dp-2 verdict "
         "0/alpha12 error 0.267103 > 0.25; alpha21 error 0.428036 > 0.25; "
         "/0x1.118355015681cp-2/0x1.b64f2ae2b256ap-2/0x1.3f26a24581a45p+6 "
         "stats 266/1134/0x1.a9999999999b8p+3",
         "pair 4 ok gates 0x1.41038536f214ep-2 0x1.7f29af9943b81p-3 verdict "
         "0/alpha12 error 0.318764 > 0.25; alpha21 error 0.280949 > 0.25; "
         "/0x1.4669fa8bee967p-2/0x1.1fb1060159c45p-2/0x1.67ef0a1316e5fp+6 "
         "stats 269/1143/0x1.ae66666666686p+3",
         "pair 5 ok gates 0x1.430d092e30fa3p-3 0x1.db6822b15a036p-3 verdict "
         "0/alpha12 error 0.378396 > 0.25; "
         "/0x1.837a54c52a227p-2/0x1.00acd055a4ca9p-5/0x1.4ee8701194227p+6 "
         "stats 263/1113/0x1.a4ccccccccceap+3",
         "pair 6 ok gates 0x1.a9188fc12804dp-3 0x1.430d091ed0117p-3 verdict "
         "0/alpha21 error 0.380654 > 0.25; "
         "/0x1.0130db50a8153p-3/0x1.85ca37e570547p-2/0x1.4986e8003cc61p+6 "
         "stats 264/1113/0x1.a666666666684p+3",
         "pair 7 ok gates 0x1.93c5ee01aacp-3 0x1.1f8547c60c2f8p-2 verdict "
         "1/within "
         "tolerance/0x1.d9f731f02ddadp-3/0x1.80bccc9fba2cp-3/0x1.6406623997572p+6 "
         "stats 270/1146/0x1.b00000000002p+3",
         "pair 8 ok gates 0x1.38d6cb011bbd1p-2 0x1.e9e816def704bp-3 verdict "
         "1/within "
         "tolerance/0x1.08217fa5401d7p-3/0x1.c98d4c7571fc9p-7/0x1.604a537d76078p+6 "
         "stats 268/1140/0x1.accccccccccecp+3",
         "pair 9 ok gates 0x1.2b04ac296bde4p-2 0x1.6f1349c981663p-3 verdict "
         "0/alpha21 error 0.271443 > 0.25; "
         "/0x1.60499dd43e427p-3/0x1.15f51bdf7be8bp-2/0x1.61d05241ce4d6p+6 "
         "stats 265/1131/0x1.a80000000001ep+3",
         "pair 10 ok gates 0x1.db68224e9a465p-3 0x1.e3779bab54e65p-3 verdict "
         "1/within "
         "tolerance/0x1.2d1a13676a0c8p-4/0x1.af2e0cc3572ddp-5/0x1.6052e74eb33e2p+6 "
         "stats 270/1143/0x1.b00000000002p+3",
         "pair 11 ok gates 0x1.db68225d5d47dp-3 0x1.0a91bd6777c3ep-2 verdict "
         "1/within "
         "tolerance/0x1.ff3209f8915bp-7/0x1.feb6dd55eb332p-7/0x1.67dccfb6c73d5p+6 "
         "stats 274/1158/0x1.b666666666688p+3",
         "pair 12 ok gates 0x1.e3779b623142ep-3 0x1.db6822828dc5p-3 verdict "
         "1/within "
         "tolerance/0x1.e7bb8e4d3a56bp-6/0x1.552950d7a11f7p-5/0x1.63c9e7ce7e07ap+6 "
         "stats 270/1143/0x1.b00000000002p+3",
         "pair 13 ok gates 0x1.036357b9d4de8p-2 0x1.19e7787306b49p-2 verdict "
         "1/within "
         "tolerance/0x1.9bf1ec570f0c2p-5/0x1.adcac0cdd7de2p-5/0x1.67f2fb0164642p+6 "
         "stats 267/1140/0x1.ab33333333352p+3",
         "pair 14 ok gates 0x1.19e77871258ecp-2 0x1.db68228d8b1dep-3 verdict "
         "1/within "
         "tolerance/0x1.0c46e892cd9d7p-4/0x1.8ce21d2070a87p-5/0x1.66c731962f42fp+6 "
         "stats 269/1143/0x1.ae66666666686p+3",
    }},
    {16, 163, 32, 0.0, {
         "status ok",
         "band 0x1.70431766a9df4p-4",
         "row 0x1p+0 0x1.96fd8dbc5aa4fp-3 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0",
         "row 0x1.39f9f64b8955ep-2 0x1p+0 0x1.333f079543af8p-2 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0",
         "row 0x0p+0 0x1.19e77865678d9p-2 0x1p+0 0x1.e9e816c39a6fep-3 0x0p+0 "
         "0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x1.38d6cb1155d4dp-2 0x1p+0 0x1.4103855885293p-2 "
         "0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x1.19e7786867d66p-2 0x1p+0 "
         "0x1.19e778768eb95p-2 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0 0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x1.410385498d67ap-2 0x1p+0 "
         "0x1.38d6cb082b43p-2 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x1.0e985344d2097p-2 0x1p+0 "
         "0x1.38d6caf1eb735p-2 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x1.19e7786a5c627p-2 "
         "0x1p+0 0x1.19e7787c53d4ep-2 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x1.38d6cb1d208ccp-2 0x1p+0 0x1.20e3810cd734ep-2 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0 0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x1.38d6cb0598e66p-2 0x1p+0 0x1.38d6caf09de9p-2 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x1.db6822a33b2b3p-3 0x1p+0 0x1.6f1349f88e097p-3 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x1.2b04ac26bfd2ap-2 0x1p+0 0x1.19e7786dc08b6p-2 0x0p+0 "
         "0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0 0x1.f7b22728508f2p-3 0x1p+0 0x1.e3779bd296921p-3 "
         "0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0 0x0p+0 0x1.19e7785f2d82cp-2 0x1p+0 "
         "0x1.e3779bbdbc65bp-3 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x1.e3779b53c1527p-3 0x1p+0 "
         "0x1.0ff01faabbccap-2",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x1.2e07652245e62p-3 0x1p+0",
         "pair 0 ok gates 0x1.96fd8dbc5aa4fp-3 0x1.39f9f64b8955ep-2 verdict "
         "1/within "
         "tolerance/0x1.e744d5d597b94p-3/0x1.3c67a5d739a5ep-4/0x1.5de8966b18a33p+6 "
         "stats 274/1158/0x1.b666666666688p+3",
         "pair 1 ok gates 0x1.333f079543af8p-2 0x1.19e77865678d9p-2 verdict "
         "1/within "
         "tolerance/0x1.05aa03f94eab1p-3/0x1.bab3fbade086fp-5/0x1.5c1686420b33p+6 "
         "stats 263/1128/0x1.a4ccccccccceap+3",
         "pair 2 ok gates 0x1.e9e816c39a6fep-3 0x1.38d6cb1155d4dp-2 verdict "
         "0/alpha21 error 0.287586 > 0.25; "
         "/0x1.f977d186ad3dp-4/0x1.267cdee5a2588p-2/0x1.51027a12af07dp+6 "
         "stats 269/1143/0x1.ae66666666686p+3",
         "pair 3 ok gates 0x1.4103855885293p-2 0x1.19e7786867d66p-2 verdict "
         "1/within "
         "tolerance/0x1.e0647345e1f4bp-3/0x1.83ff76899e7fap-13/0x1.595b238b2df04p+6 "
         "stats 271/1158/0x1.b1999999999bap+3",
         "pair 4 ok gates 0x1.19e778768eb95p-2 0x1.410385498d67ap-2 verdict "
         "0/alpha21 error 0.394341 > 0.25; "
         "/0x1.e44b312b38e39p-6/0x1.93ce3cb368508p-2/0x1.506d52a18f972p+6 "
         "stats 273/1158/0x1.b4ccccccccceep+3",
         "pair 5 ok gates 0x1.38d6cb082b43p-2 0x1.0e985344d2097p-2 verdict "
         "0/alpha12 error 0.297445 > 0.25; "
         "/0x1.3095721dec81p-2/0x1.90bb81ffc36f4p-4/0x1.5117397950017p+6 "
         "stats 266/1137/0x1.a9999999999b8p+3",
         "pair 6 ok gates 0x1.38d6caf1eb735p-2 0x1.19e7786a5c627p-2 verdict "
         "1/within "
         "tolerance/0x1.4f14545674f11p-3/0x1.9f8ba9863f748p-4/0x1.571afbfbba9ccp+6 "
         "stats 263/1128/0x1.a4ccccccccceap+3",
         "pair 7 ok gates 0x1.19e7787c53d4ep-2 0x1.38d6cb1d208ccp-2 verdict "
         "0/alpha21 error 0.254913 > 0.25; "
         "/0x1.7d7fdbdd7f1d7p-4/0x1.0507f9f8b709ap-2/0x1.52f495287b0ecp+6 "
         "stats 263/1128/0x1.a4ccccccccceap+3",
         "pair 8 ok gates 0x1.20e3810cd734ep-2 0x1.38d6cb0598e66p-2 verdict "
         "0/alpha12 error 0.255266 > 0.25; "
         "/0x1.0564901a160d2p-2/0x1.51934e5990808p-3/0x1.4f3553b582b92p+6 "
         "stats 266/1137/0x1.a9999999999b8p+3",
         "pair 9 ok gates 0x1.38d6caf09de9p-2 0x1.db6822a33b2b3p-3 verdict "
         "0/alpha12 error 0.322255 > 0.25; "
         "/0x1.49fd19c38672ep-2/0x1.ea384223ba03fp-4/0x1.5dde83c74c96p+6 "
         "stats 269/1143/0x1.ae66666666686p+3",
         "pair 10 ok gates 0x1.6f1349f88e097p-3 0x1.2b04ac26bfd2ap-2 verdict "
         "1/within "
         "tolerance/0x1.fb4c4c38100acp-3/0x1.3e063d48b01c8p-3/0x1.62e64c6b07288p+6 "
         "stats 265/1131/0x1.a80000000001ep+3",
         "pair 11 ok gates 0x1.19e7786dc08b6p-2 0x1.f7b22728508f2p-3 verdict "
         "1/within "
         "tolerance/0x1.0e9afe80763c6p-3/0x1.f8fd55b3702f4p-8/0x1.60a4079b269f4p+6 "
         "stats 264/1131/0x1.a666666666684p+3",
         "pair 12 ok gates 0x1.e3779bd296921p-3 0x1.19e7785f2d82cp-2 verdict "
         "1/within "
         "tolerance/0x1.0b9f901b47644p-5/0x1.92ea6cdf06b94p-4/0x1.63f4455a3d8ep+6 "
         "stats 264/1131/0x1.a666666666684p+3",
         "pair 13 ok gates 0x1.e3779bbdbc65bp-3 0x1.e3779b53c1527p-3 verdict "
         "1/within "
         "tolerance/0x1.aaabd1476b6bbp-7/0x1.13aae7a82466ap-4/0x1.649595f564025p+6 "
         "stats 265/1134/0x1.a80000000001ep+3",
         "pair 14 ok gates 0x1.0ff01faabbccap-2 0x1.2e07652245e62p-3 verdict "
         "0/alpha21 error 0.378746 > 0.25; "
         "/0x1.fec6664e5e988p-5/0x1.83d5f1857bb93p-2/0x1.4dda31a55fc21p+6 "
         "stats 263/1116/0x1.a4ccccccccceap+3",
    }},
    {16, 163, 32, 0.02, {
         "status ok",
         "band 0x1.70431766a9df4p-4",
         "row 0x1p+0 0x1.96fd8dbc5aa4fp-3 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0",
         "row 0x1.39f9f64b8955ep-2 0x1p+0 0x1.333f079543af8p-2 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0",
         "row 0x0p+0 0x1.19e77865678d9p-2 0x1p+0 0x1.e9e816c39a6fep-3 0x0p+0 "
         "0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x1.38d6cb1155d4dp-2 0x1p+0 0x1.4103855885293p-2 "
         "0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x1.19e7786867d66p-2 0x1p+0 "
         "0x1.19e778768eb95p-2 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0 0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x1.410385498d67ap-2 0x1p+0 "
         "0x1.38d6cb082b43p-2 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x1.0e985344d2097p-2 0x1p+0 "
         "0x1.38d6caf1eb735p-2 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x1.19e7786a5c627p-2 "
         "0x1p+0 0x1.19e7787c53d4ep-2 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x1.38d6cb1d208ccp-2 0x1p+0 0x1.20e3810cd734ep-2 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0 0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x1.38d6cb0598e66p-2 0x1p+0 0x1.38d6caf09de9p-2 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x1.db6822a33b2b3p-3 0x1p+0 0x1.6f1349f88e097p-3 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x1.2b04ac26bfd2ap-2 0x1p+0 0x1.19e7786dc08b6p-2 0x0p+0 "
         "0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0 0x1.f7b22728508f2p-3 0x1p+0 0x1.e3779bd296921p-3 "
         "0x0p+0 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0 0x0p+0 0x1.19e7785f2d82cp-2 0x1p+0 "
         "0x1.e3779bbdbc65bp-3 0x0p+0",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x1.e3779b53c1527p-3 0x1p+0 "
         "0x1.0ff01faabbccap-2",
         "row 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
         "0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x1.2e07652245e62p-3 0x1p+0",
         "pair 0 ok gates 0x1.96fd8dbc5aa4fp-3 0x1.39f9f64b8955ep-2 verdict "
         "1/within "
         "tolerance/0x1.e744d5d597b94p-3/0x1.3c67a5d739a5ep-4/0x1.5de8966b18a33p+6 "
         "stats 274/1158/0x1.b666666666688p+3",
         "pair 1 ok gates 0x1.333f079543af8p-2 0x1.19e77865678d9p-2 verdict "
         "1/within "
         "tolerance/0x1.05aa03f94eab1p-3/0x1.bab3fbade086fp-5/0x1.5c1686420b33p+6 "
         "stats 263/1128/0x1.a4ccccccccceap+3",
         "pair 2 ok gates 0x1.e9e816c39a6fep-3 0x1.38d6cb1155d4dp-2 verdict "
         "0/alpha21 error 0.287586 > 0.25; "
         "/0x1.f977d186ad3dp-4/0x1.267cdee5a2588p-2/0x1.51027a12af07dp+6 "
         "stats 269/1143/0x1.ae66666666686p+3",
         "pair 3 ok gates 0x1.4103855885293p-2 0x1.19e7786867d66p-2 verdict "
         "1/within "
         "tolerance/0x1.e0647345e1f4bp-3/0x1.83ff76899e7fap-13/0x1.595b238b2df04p+6 "
         "stats 271/1158/0x1.b1999999999bap+3",
         "pair 4 ok gates 0x1.19e778768eb95p-2 0x1.410385498d67ap-2 verdict "
         "0/alpha21 error 0.394341 > 0.25; "
         "/0x1.e44b312b38e39p-6/0x1.93ce3cb368508p-2/0x1.506d52a18f972p+6 "
         "stats 273/1158/0x1.b4ccccccccceep+3",
         "pair 5 ok gates 0x1.38d6cb082b43p-2 0x1.0e985344d2097p-2 verdict "
         "0/alpha12 error 0.297445 > 0.25; "
         "/0x1.3095721dec81p-2/0x1.90bb81ffc36f4p-4/0x1.5117397950017p+6 "
         "stats 266/1137/0x1.a9999999999b8p+3",
         "pair 6 ok gates 0x1.38d6caf1eb735p-2 0x1.19e7786a5c627p-2 verdict "
         "1/within "
         "tolerance/0x1.4f14545674f11p-3/0x1.9f8ba9863f748p-4/0x1.571afbfbba9ccp+6 "
         "stats 263/1128/0x1.a4ccccccccceap+3",
         "pair 7 ok gates 0x1.19e7787c53d4ep-2 0x1.38d6cb1d208ccp-2 verdict "
         "0/alpha21 error 0.254913 > 0.25; "
         "/0x1.7d7fdbdd7f1d7p-4/0x1.0507f9f8b709ap-2/0x1.52f495287b0ecp+6 "
         "stats 263/1128/0x1.a4ccccccccceap+3",
         "pair 8 ok gates 0x1.20e3810cd734ep-2 0x1.38d6cb0598e66p-2 verdict "
         "0/alpha12 error 0.255266 > 0.25; "
         "/0x1.0564901a160d2p-2/0x1.51934e5990808p-3/0x1.4f3553b582b92p+6 "
         "stats 266/1137/0x1.a9999999999b8p+3",
         "pair 9 ok gates 0x1.38d6caf09de9p-2 0x1.db6822a33b2b3p-3 verdict "
         "0/alpha12 error 0.322255 > 0.25; "
         "/0x1.49fd19c38672ep-2/0x1.ea384223ba03fp-4/0x1.5dde83c74c96p+6 "
         "stats 269/1143/0x1.ae66666666686p+3",
         "pair 10 ok gates 0x1.6f1349f88e097p-3 0x1.2b04ac26bfd2ap-2 verdict "
         "1/within "
         "tolerance/0x1.fb4c4c38100acp-3/0x1.3e063d48b01c8p-3/0x1.62e64c6b07288p+6 "
         "stats 265/1131/0x1.a80000000001ep+3",
         "pair 11 ok gates 0x1.19e7786dc08b6p-2 0x1.f7b22728508f2p-3 verdict "
         "1/within "
         "tolerance/0x1.0e9afe80763c6p-3/0x1.f8fd55b3702f4p-8/0x1.60a4079b269f4p+6 "
         "stats 264/1131/0x1.a666666666684p+3",
         "pair 12 ok gates 0x1.e3779bd296921p-3 0x1.19e7785f2d82cp-2 verdict "
         "1/within "
         "tolerance/0x1.0b9f901b47644p-5/0x1.92ea6cdf06b94p-4/0x1.63f4455a3d8ep+6 "
         "stats 264/1131/0x1.a666666666684p+3",
         "pair 13 ok gates 0x1.e3779bbdbc65bp-3 0x1.e3779b53c1527p-3 verdict "
         "1/within "
         "tolerance/0x1.aaabd1476b6bbp-7/0x1.13aae7a82466ap-4/0x1.649595f564025p+6 "
         "stats 265/1134/0x1.a80000000001ep+3",
         "pair 14 ok gates 0x1.0ff01faabbccap-2 0x1.2e07652245e62p-3 verdict "
         "0/alpha21 error 0.378746 > 0.25; "
         "/0x1.fec6664e5e988p-5/0x1.83d5f1857bb93p-2/0x1.4dda31a55fc21p+6 "
         "stats 263/1116/0x1.a4ccccccccceap+3",
    }},
};

TEST(ArrayGoldenTest, ReportsMatchPins) {
  for (const GoldenCase& c : kCases) expect_matches_pin(c);
}

}  // namespace
}  // namespace qvg
