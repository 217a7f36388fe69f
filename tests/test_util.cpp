/// Unit tests for src/util: string/byte formatting, stats, CSV/JSON emitters,
/// CLI parsing, and the AMReX inputs-file parser (paper Listing 2 format).

#include <gtest/gtest.h>

#include <sstream>

#include "util/ascii_plot.hpp"
#include "util/assert.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/format.hpp"
#include "util/inputs.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace u = amrio::util;

// ---------------------------------------------------------------- format

TEST(Format, SplitKeepsEmptyTokens) {
  const auto parts = u::split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Format, SplitWsDropsEmptyTokens) {
  const auto parts = u::split_ws("  32   32\t64 ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "32");
  EXPECT_EQ(parts[2], "64");
}

TEST(Format, TrimBothEnds) {
  EXPECT_EQ(u::trim("  x y  "), "x y");
  EXPECT_EQ(u::trim("\t\n"), "");
  EXPECT_EQ(u::trim(""), "");
}

TEST(Format, HumanBytes) {
  EXPECT_EQ(u::human_bytes(512), "512 B");
  EXPECT_EQ(u::human_bytes(1536), "1.50 KiB");
  EXPECT_EQ(u::human_bytes(1ull << 30), "1.00 GiB");
}

TEST(Format, ParseBytesPlain) {
  EXPECT_EQ(u::parse_bytes("1234"), 1234u);
  EXPECT_EQ(u::parse_bytes("0"), 0u);
}

TEST(Format, ParseBytesSuffixes) {
  EXPECT_EQ(u::parse_bytes("64K"), 64u * 1024);
  EXPECT_EQ(u::parse_bytes("1.5M"), static_cast<std::uint64_t>(1.5 * 1024 * 1024));
  EXPECT_EQ(u::parse_bytes("2G"), 2ull << 30);
  EXPECT_EQ(u::parse_bytes(" 8 KiB "), 8u * 1024);
}

TEST(Format, ParseBytesRejectsGarbage) {
  EXPECT_THROW(u::parse_bytes(""), std::invalid_argument);
  EXPECT_THROW(u::parse_bytes("abc"), std::invalid_argument);
  EXPECT_THROW(u::parse_bytes("12Q"), std::invalid_argument);
  EXPECT_THROW(u::parse_bytes("-5K"), std::invalid_argument);
  // non-finite and unrepresentable sizes have no uint64 rounding
  EXPECT_THROW(u::parse_bytes("nan"), std::invalid_argument);
  EXPECT_THROW(u::parse_bytes("inf"), std::invalid_argument);
  EXPECT_THROW(u::parse_bytes("-inf"), std::invalid_argument);
  EXPECT_THROW(u::parse_bytes("1e30"), std::invalid_argument);
  EXPECT_THROW(u::parse_bytes("16777216T"), std::invalid_argument);  // 2^64
  EXPECT_EQ(u::parse_bytes("1.5e19"), 15000000000000000000ull);  // > 2^63
}

TEST(Format, ZeroPad) {
  EXPECT_EQ(u::zero_pad(7, 5), "00007");
  EXPECT_EQ(u::zero_pad(12345, 5), "12345");
  EXPECT_EQ(u::zero_pad(123456, 5), "123456");  // does not truncate
}

// ------------------------------------------------------------------ rng

TEST(Rng, DeterministicForSeed) {
  u::Xoshiro256 a(42);
  u::Xoshiro256 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  u::Xoshiro256 a(1);
  u::Xoshiro256 b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval) {
  u::Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, LognormalMeanCorrection) {
  // E[exp(sigma Z - sigma²/2)] == 1.
  u::Xoshiro256 rng(99);
  const double sigma = 0.4;
  double acc = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i)
    acc += rng.lognormal(-0.5 * sigma * sigma, sigma);
  EXPECT_NEAR(acc / n, 1.0, 0.01);
}

// ---------------------------------------------------------------- stats

TEST(Stats, RunningStatsBasics) {
  u::RunningStats rs;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) rs.push(v);
  EXPECT_EQ(rs.count(), 8u);
  EXPECT_DOUBLE_EQ(rs.mean(), 5.0);
  EXPECT_NEAR(rs.stddev(), 2.13809, 1e-4);  // sample stddev
  EXPECT_DOUBLE_EQ(rs.min(), 2.0);
  EXPECT_DOUBLE_EQ(rs.max(), 9.0);
  EXPECT_DOUBLE_EQ(rs.sum(), 40.0);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(u::percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(u::percentile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(u::percentile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(u::percentile(v, 0.25), 2.0);
}

TEST(Stats, ImbalanceFactor) {
  const std::vector<double> balanced{4, 4, 4, 4};
  EXPECT_DOUBLE_EQ(u::imbalance_factor(balanced), 1.0);
  const std::vector<double> skewed{0, 0, 0, 8};
  EXPECT_DOUBLE_EQ(u::imbalance_factor(skewed), 4.0);
}

TEST(Stats, GiniBounds) {
  const std::vector<double> even{5, 5, 5, 5};
  EXPECT_NEAR(u::gini(even), 0.0, 1e-12);
  const std::vector<double> one{0, 0, 0, 100};
  EXPECT_GT(u::gini(one), 0.7);
}

TEST(Stats, HistogramCountsEverything) {
  std::vector<double> v;
  for (int i = 0; i < 100; ++i) v.push_back(i);
  const auto h = u::histogram(v, 10);
  std::uint64_t total = 0;
  for (auto c : h.counts) total += c;
  EXPECT_EQ(total, 100u);
  EXPECT_DOUBLE_EQ(h.lo, 0.0);
  EXPECT_DOUBLE_EQ(h.hi, 99.0);
}

// ------------------------------------------------------------------ csv

TEST(Csv, EscapesSpecials) {
  EXPECT_EQ(u::CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(u::CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(u::CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, RowArityEnforced) {
  const std::string path = testing::TempDir() + "/amrio_csv_test.csv";
  u::CsvWriter csv(path);
  csv.header({"a", "b"});
  csv.field("1").field("2");
  csv.endrow();
  csv.field("only-one");
  EXPECT_THROW(csv.endrow(), amrio::ContractViolation);
}

// ----------------------------------------------------------------- json

TEST(Json, ObjectAndArray) {
  std::ostringstream os;
  u::JsonWriter w(os);
  w.begin_object();
  w.key("name").value("sedov");
  w.key("steps").begin_array().value(1).value(2).value(3).end_array();
  w.key("ok").value(true);
  w.end_object();
  EXPECT_TRUE(w.complete());
  EXPECT_EQ(os.str(), R"({"name":"sedov","steps":[1,2,3],"ok":true})");
}

TEST(Json, EscapesControlCharacters) {
  EXPECT_EQ(u::JsonWriter::escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

TEST(Json, KeyOutsideObjectThrows) {
  std::ostringstream os;
  u::JsonWriter w(os);
  w.begin_array();
  EXPECT_THROW(w.key("nope"), amrio::ContractViolation);
}

TEST(Json, ValueWithoutKeyInObjectThrows) {
  std::ostringstream os;
  u::JsonWriter w(os);
  w.begin_object();
  EXPECT_THROW(w.value(1), amrio::ContractViolation);
}

// ------------------------------------------------------------------ cli

TEST(Cli, ParsesOptionsAndFlags) {
  u::ArgParser cli("prog", "test");
  cli.add_option("num_dumps", "dumps", 1, std::string("10"));
  cli.add_option("part_size", "bytes");
  cli.add_flag("verbose", "talk more");
  cli.parse({"--part_size", "64K", "--verbose"});
  EXPECT_EQ(cli.get_int("num_dumps"), 10);
  EXPECT_EQ(cli.get("part_size"), "64K");
  EXPECT_TRUE(cli.flag("verbose"));
}

TEST(Cli, EqualsSyntax) {
  u::ArgParser cli("prog", "test");
  cli.add_option("cfl", "courant number");
  cli.parse({"--cfl=0.4"});
  EXPECT_DOUBLE_EQ(cli.get_double("cfl"), 0.4);
}

TEST(Cli, MultiValueOption) {
  u::ArgParser cli("prog", "test");
  cli.add_option("parallel_file_mode", "mode", 2);
  cli.parse({"--parallel_file_mode", "MIF", "8"});
  const auto v = cli.get_all("parallel_file_mode");
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0], "MIF");
  EXPECT_EQ(v[1], "8");
}

TEST(Cli, UnknownOptionThrows) {
  u::ArgParser cli("prog", "test");
  EXPECT_THROW(cli.parse({"--mystery", "1"}), std::invalid_argument);
}

TEST(Cli, MissingValueThrows) {
  u::ArgParser cli("prog", "test");
  cli.add_option("n", "count");
  EXPECT_THROW(cli.parse({"--n"}), std::invalid_argument);
}

namespace {
/// what() of the std::invalid_argument `fn` throws ("" when it returns).
template <class F>
std::string cli_error(F fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}
}  // namespace

TEST(Cli, RejectsTrailingGarbage) {
  u::ArgParser cli("prog", "test");
  cli.add_option("num_dumps", "dumps");
  cli.add_option("cfl", "courant number");
  cli.parse({"--num_dumps", "2x", "--cfl", "0.4.1"});
  EXPECT_EQ(cli_error([&] { (void)cli.get_int("num_dumps"); }),
            "--num_dumps: expected an integer, got '2x'");
  EXPECT_EQ(cli_error([&] { (void)cli.get_int_or("num_dumps", 1); }),
            "--num_dumps: expected an integer, got '2x'");
  EXPECT_EQ(cli_error([&] { (void)cli.get_double("cfl"); }),
            "--cfl: expected a finite number, got '0.4.1'");
  EXPECT_THROW(u::parse_int<int>("n", " 5"), std::invalid_argument);
  EXPECT_THROW(u::parse_int<int>("n", ""), std::invalid_argument);
  EXPECT_THROW(u::parse_double("x", "1.5y"), std::invalid_argument);
  EXPECT_DOUBLE_EQ(u::parse_double("x", "1.25e10"), 1.25e10);
}

TEST(Cli, RejectsNonFiniteNumbers) {
  for (const char* tok : {"inf", "-inf", "nan", "infinity", "1e400"}) {
    u::ArgParser cli("prog", "test");
    cli.add_option("avg_num_parts", "parts");
    cli.parse({std::string("--avg_num_parts=") + tok});
    EXPECT_THROW((void)cli.get_double("avg_num_parts"), std::invalid_argument)
        << tok;
    EXPECT_THROW((void)cli.get_double_or("avg_num_parts", 1.0),
                 std::invalid_argument)
        << tok;
  }
}

TEST(Cli, IntOverflowIsRejectedNotWrapped) {
  u::ArgParser cli("prog", "test");
  cli.add_option("nprocs", "ranks");
  cli.parse({"--nprocs", "4294967300"});
  EXPECT_EQ(cli.get_int("nprocs"), 4294967300LL);  // fits int64
  EXPECT_EQ(cli_error([&] { (void)cli.get_int<int>("nprocs"); }),
            "--nprocs: 4294967300 is out of range");
  EXPECT_THROW(u::parse_int<std::int64_t>("n", "99999999999999999999"),
               std::invalid_argument);
}

TEST(Cli, NegativeUnsignedIsRejected) {
  u::ArgParser cli("prog", "test");
  cli.add_option("seed", "rng seed", 1, std::string("7"));
  EXPECT_EQ(cli.get_int<std::uint64_t>("seed"), 7u);
  cli.parse({"--seed", "-3"});
  EXPECT_EQ(cli_error([&] { (void)cli.get_int<std::uint64_t>("seed"); }),
            "--seed: expected a non-negative integer, got '-3'");
}

TEST(Cli, EqualsFormSuppliesFirstOfSeveralValues) {
  u::ArgParser cli("prog", "test");
  cli.add_option("parallel_file_mode", "mode", 2);
  cli.parse({"--parallel_file_mode=MIF", "8"});
  EXPECT_EQ(cli.get_all("parallel_file_mode"),
            (std::vector<std::string>{"MIF", "8"}));
  u::ArgParser short_cli("prog", "test");
  short_cli.add_option("parallel_file_mode", "mode", 2);
  EXPECT_THROW(short_cli.parse({"--parallel_file_mode=MIF"}),
               std::invalid_argument);
}

// --------------------------------------------------------------- inputs

namespace {
constexpr const char* kListing2 = R"(
# INPUTS TO MAIN PROGRAM
max_step = 500
stop_time = 0.1
geometry.is_periodic = 0 0
geometry.coord_sys = 0 # 0 => cart
geometry.prob_lo = 0 0
geometry.prob_hi = 1 1
amr.n_cell = 32 32
castro.lo_bc = 2 2
castro.hi_bc = 2 2
castro.do_hydro = 1
castro.do_react = 0
castro.cfl = 0.5
castro.init_shrink = 0.01
castro.change_max = 1.1
castro.sum_interval = 1
castro.v = 1
amr.v = 1
amr.max_level = 3
amr.ref_ratio = 2 2 2 2
amr.regrid_int = 2
amr.blocking_factor = 8
amr.max_grid_size = 256
amr.check_file = sedov_2d_cyl_in_cart_chk
amr.check_int = 20
amr.plot_file = sedov_2d_cyl_in_cart_plt
amr.plot_int = 20
amr.derive_plot_vars=ALL
amr.probin_file =
)";
}

TEST(Inputs, ParsesListing2Verbatim) {
  const auto in = u::InputsFile::from_string(kListing2);
  EXPECT_EQ(in.get_int("max_step"), 500);
  EXPECT_DOUBLE_EQ(in.get_double("stop_time"), 0.1);
  EXPECT_EQ(in.get_int_list("amr.n_cell"), (std::vector<std::int64_t>{32, 32}));
  EXPECT_EQ(in.get_int("amr.max_level"), 3);
  EXPECT_DOUBLE_EQ(in.get_double("castro.cfl"), 0.5);
  EXPECT_EQ(in.get_string("amr.plot_file"), "sedov_2d_cyl_in_cart_plt");
  EXPECT_EQ(in.get_int("amr.plot_int"), 20);
  // comment stripped mid-line
  EXPECT_EQ(in.get_int("geometry.coord_sys"), 0);
  // key present but empty value
  EXPECT_TRUE(in.contains("amr.probin_file"));
  EXPECT_THROW(in.get_string("amr.probin_file"), std::invalid_argument);
}

TEST(Inputs, MissingKeyBehaviour) {
  const auto in = u::InputsFile::from_string("a.b = 1\n");
  EXPECT_THROW(in.get_int("nope"), std::out_of_range);
  EXPECT_EQ(in.get_int_or("nope", 7), 7);
  EXPECT_EQ(in.get_string_or("nope", "x"), "x");
}

TEST(Inputs, BadConversionThrows) {
  const auto in = u::InputsFile::from_string("k = abc\n");
  EXPECT_THROW(in.get_int("k"), std::invalid_argument);
  EXPECT_THROW(in.get_double("k"), std::invalid_argument);
}

TEST(Inputs, MalformedLineThrows) {
  EXPECT_THROW(u::InputsFile::from_string("no equals sign here\n"),
               std::invalid_argument);
  EXPECT_THROW(u::InputsFile::from_string("= 3\n"), std::invalid_argument);
}

TEST(Inputs, RoundTripThroughToString) {
  auto in = u::InputsFile::from_string("b.key = 2 3\na.key = 1\n");
  in.set("c.key", static_cast<std::int64_t>(9));
  const auto again = u::InputsFile::from_string(in.to_string());
  EXPECT_EQ(again.get_int_list("b.key"), (std::vector<std::int64_t>{2, 3}));
  EXPECT_EQ(again.get_int("a.key"), 1);
  EXPECT_EQ(again.get_int("c.key"), 9);
}

// ---------------------------------------------------------------- table

TEST(Table, RendersAllRows) {
  u::TextTable t({"col1", "col2"});
  t.add_row({"a", "1"});
  t.add_row({"b", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("col1"), std::string::npos);
  EXPECT_NE(s.find("22"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, WrongArityThrows) {
  u::TextTable t({"a", "b", "c"});
  EXPECT_THROW(t.add_row({"only", "two"}), amrio::ContractViolation);
}

// ----------------------------------------------------------- ascii plot

TEST(AsciiPlot, PlotsSeriesGlyphs) {
  u::Series s1{"linear", {1, 2, 3, 4}, {1, 2, 3, 4}};
  u::Series s2{"flat", {1, 2, 3, 4}, {2, 2, 2, 2}};
  u::PlotOptions opts;
  opts.title = "test";
  const std::string out = u::plot_xy({s1, s2}, opts);
  EXPECT_NE(out.find('a'), std::string::npos);
  EXPECT_NE(out.find('b'), std::string::npos);
  EXPECT_NE(out.find("linear"), std::string::npos);
}

TEST(AsciiPlot, LogScaleSkipsNonPositive) {
  u::Series s{"s", {0.0, 10.0, 100.0}, {-1.0, 10.0, 100.0}};
  u::PlotOptions opts;
  opts.log_x = true;
  opts.log_y = true;
  EXPECT_NO_THROW(u::plot_xy({s}, opts));
}

TEST(AsciiPlot, HeatmapDimensionsChecked) {
  std::vector<double> field(12, 1.0);
  EXPECT_NO_THROW(u::heatmap(field, 4, 3, "t"));
  EXPECT_THROW(u::heatmap(field, 5, 3, "t"), amrio::ContractViolation);
}

// --------------------------------------------------------------- assert

TEST(Assert, ExpectsThrowsWithContext) {
  try {
    AMRIO_EXPECTS_MSG(1 == 2, "the answer is " << 42);
    FAIL() << "should have thrown";
  } catch (const amrio::ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("the answer is 42"), std::string::npos);
  }
}
