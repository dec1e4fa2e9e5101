// Reproduction assertions: Fig. 2's qualitative features ("Sunrise, and
// lights-off at the end of the day, can easily be identified").
#include <gtest/gtest.h>

#include "env/profiles.hpp"
#include "env/solar.hpp"
#include "pv/cell_library.hpp"

namespace focv {
namespace {

TEST(Fig2Repro, SunriseVisibleInVocTrace) {
  const env::LightTrace day = env::office_desk_mixed();
  const auto voc = day.voc_series(pv::schott_asi_1116929(), 300.15);
  const auto& t = day.time();
  const double sunrise = env::sunrise_time(env::SolarConfig{});
  double voc_before = 0.0, voc_after = 0.0;
  int n_before = 0, n_after = 0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i] > sunrise - 3600.0 && t[i] < sunrise - 1800.0) {
      voc_before += voc[i];
      ++n_before;
    }
    if (t[i] > sunrise + 1800.0 && t[i] < sunrise + 3600.0) {
      voc_after += voc[i];
      ++n_after;
    }
  }
  ASSERT_GT(n_before, 0);
  ASSERT_GT(n_after, 0);
  // Dark before sunrise, volts after: an easily identified edge.
  EXPECT_LT(voc_before / n_before, 0.5);
  EXPECT_GT(voc_after / n_after, 3.0);
}

TEST(Fig2Repro, LightsOffVisibleAsVocStep) {
  env::OfficeDayParams params;
  const env::LightTrace day = env::office_desk_mixed(params);
  const auto voc = day.voc_series(pv::schott_asi_1116929(), 300.15);
  const auto& t = day.time();
  double before = 0.0, after = 0.0;
  int nb = 0, na = 0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i] > params.lights_off_time - 1200.0 && t[i] < params.lights_off_time - 60.0) {
      before += voc[i];
      ++nb;
    }
    if (t[i] > params.lights_off_time + 60.0 && t[i] < params.lights_off_time + 1200.0) {
      after += voc[i];
      ++na;
    }
  }
  ASSERT_GT(nb, 0);
  ASSERT_GT(na, 0);
  // A clear downward step when the office lights go out.
  EXPECT_GT(before / nb - after / na, 0.2);
}

TEST(Fig2Repro, VocStaysInPlausibleASiBand) {
  const env::LightTrace day = env::office_desk_mixed();
  const auto voc = day.voc_series(pv::schott_asi_1116929(), 300.15);
  for (const double v : voc) {
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 7.3);  // below the module's built-in potential
  }
}

TEST(Fig2Repro, NightIsDark) {
  const env::LightTrace day = env::office_desk_mixed();
  const auto voc = day.voc_series(pv::schott_asi_1116929(), 300.15);
  const auto& t = day.time();
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i] < 2.0 * 3600.0) {
      EXPECT_LT(voc[i], 0.5) << "t=" << t[i];
    }
  }
}

}  // namespace
}  // namespace focv
