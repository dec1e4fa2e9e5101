// SPICE-style netlist parsing.
#include <cmath>

#include <gtest/gtest.h>

#include "circuit/dc_analysis.hpp"
#include "circuit/netlist_parser.hpp"
#include "circuit/transient.hpp"

namespace focv::circuit {
namespace {

TEST(EngineeringValue, SuffixesAndPlainNumbers) {
  EXPECT_DOUBLE_EQ(parse_engineering_value("10k"), 1e4);
  EXPECT_DOUBLE_EQ(parse_engineering_value("100n"), 1e-7);
  EXPECT_DOUBLE_EQ(parse_engineering_value("2meg"), 2e6);
  EXPECT_DOUBLE_EQ(parse_engineering_value("2MEG"), 2e6);
  EXPECT_DOUBLE_EQ(parse_engineering_value("1.5m"), 1.5e-3);
  EXPECT_DOUBLE_EQ(parse_engineering_value("3u"), 3e-6);
  EXPECT_DOUBLE_EQ(parse_engineering_value("5p"), 5e-12);
  EXPECT_DOUBLE_EQ(parse_engineering_value("7f"), 7e-15);
  EXPECT_DOUBLE_EQ(parse_engineering_value("2g"), 2e9);
  EXPECT_DOUBLE_EQ(parse_engineering_value("1t"), 1e12);
  EXPECT_DOUBLE_EQ(parse_engineering_value("1e-3"), 1e-3);
  EXPECT_DOUBLE_EQ(parse_engineering_value("-4.7"), -4.7);
}

TEST(EngineeringValue, RejectsGarbage) {
  EXPECT_THROW((void)parse_engineering_value("abc"), NetlistParseError);
  EXPECT_THROW((void)parse_engineering_value("1x"), NetlistParseError);
  EXPECT_THROW((void)parse_engineering_value(""), PreconditionError);
}

double solve_node(Circuit& ckt, const std::string& node) {
  const Vector x = dc_operating_point(ckt);
  return x[static_cast<std::size_t>(ckt.find_node(node) - 1)];
}

TEST(NetlistParser, VoltageDivider) {
  Circuit ckt;
  const int n = parse_netlist_string(R"(
* a simple divider
V1 in 0 DC 10
R1 in mid 3k
R2 mid 0 7k
.end
)", ckt);
  EXPECT_EQ(n, 3);
  EXPECT_NEAR(solve_node(ckt, "mid"), 7.0, 1e-6);
}

TEST(NetlistParser, CommentsAndBareDcValue) {
  Circuit ckt;
  parse_netlist_string(
      "V1 a 0 5        ; end-of-line comment\n"
      "// full comment\n"
      "R1 a 0 1k\n",
      ckt);
  EXPECT_NEAR(solve_node(ckt, "a"), 5.0, 1e-6);
}

TEST(NetlistParser, PulseSourceTransient) {
  Circuit ckt;
  parse_netlist_string(R"(
V1 in 0 PULSE(0 2 1m 10u 10u 2m 10m)
R1 in out 1k
C1 out 0 100n
)", ckt);
  TransientOptions opt;
  opt.t_stop = 4e-3;
  const Trace tr = transient_analyze(ckt, opt);
  EXPECT_NEAR(tr.at("out", 2.9e-3), 2.0, 0.05);
}

TEST(NetlistParser, DiodeParamsApply)
{
  Circuit ckt;
  parse_netlist_string(R"(
I1 0 a DC 1m
D1 a 0 IS=1e-12 N=2
)", ckt);
  // V = n*Vt*ln(I/Is) ~ 2*0.02585*ln(1e9) ~ 1.072 V.
  EXPECT_NEAR(solve_node(ckt, "a"), 1.072, 0.01);
}

TEST(NetlistParser, SwitchMosfetControlledSources) {
  Circuit ckt;
  parse_netlist_string(R"(
V1 in 0 DC 5
Vc ctl 0 DC 3.3
S1 in out ctl 0 RON=100 ROFF=1g VT=1.65 VW=0.2
R1 out 0 900
E1 e 0 out 0 2
RL e 0 1k
G1 0 gout out 0 1m
RG gout 0 1k
)", ckt);
  EXPECT_NEAR(solve_node(ckt, "out"), 4.5, 1e-4);
  EXPECT_NEAR(solve_node(ckt, "e"), 9.0, 1e-3);
  EXPECT_NEAR(solve_node(ckt, "gout"), 4.5, 1e-3);
}

TEST(NetlistParser, MosfetCard) {
  Circuit ckt;
  parse_netlist_string(R"(
Vdd vdd 0 DC 10
Vg g 0 DC 2
RD vdd d 4k
M1 d g 0 NMOS VTO=1 KP=2m
)", ckt);
  EXPECT_NEAR(solve_node(ckt, "d"), 6.0, 1e-3);
}

TEST(NetlistParser, AmpBufferCard) {
  Circuit ckt;
  parse_netlist_string(R"(
Vdd vdd 0 DC 3.3
Vin in 0 DC 1.2
U1 in 0 out vdd 0 BUF
RL out 0 1meg
)", ckt);
  EXPECT_NEAR(solve_node(ckt, "out"), 1.2, 5e-3);
}

TEST(NetlistParser, CapacitorInitialCondition) {
  Circuit ckt;
  parse_netlist_string(R"(
C1 a 0 1u IC=3
R1 a 0 1k
)", ckt);
  TransientOptions opt;
  opt.t_stop = 1e-3;
  opt.start_from_dc = false;
  const Trace tr = transient_analyze(ckt, opt);
  EXPECT_NEAR(tr.at("a", 1e-3), 3.0 * std::exp(-1.0), 0.02);
}

TEST(NetlistParser, ErrorsCarryLineNumbers) {
  Circuit ckt;
  try {
    parse_netlist_string("R1 a 0 1k\nX1 bogus card\n", ckt);
    FAIL() << "expected NetlistParseError";
  } catch (const NetlistParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(NetlistParser, RejectsDuplicatesAndShortCards) {
  Circuit ckt;
  EXPECT_THROW(parse_netlist_string("R1 a 0 1k\nR1 b 0 2k\n", ckt), NetlistParseError);
  Circuit ckt2;
  EXPECT_THROW(parse_netlist_string("R1 a 0\n", ckt2), NetlistParseError);
  Circuit ckt3;
  EXPECT_THROW(parse_netlist_string("M1 d g s JFET\n", ckt3), NetlistParseError);
  Circuit ckt4;
  EXPECT_THROW(parse_netlist_string(".tran 1m\n", ckt4), NetlistParseError);
}

TEST(NetlistParser, EndDirectiveStopsParsing) {
  Circuit ckt;
  const int n = parse_netlist_string("R1 a 0 1k\n.end\nR2 b 0 2k\n", ckt);
  EXPECT_EQ(n, 1);
}

}  // namespace
}  // namespace focv::circuit
