#include "core/profile_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>

namespace smokescreen {
namespace core {
namespace {

Profile MakeProfile() {
  Profile profile;
  profile.dataset_name = "ua-detrac";
  profile.detector_name = "SimYoloV4";
  profile.spec.aggregate = query::AggregateFunction::kMax;
  profile.spec.quantile_r = 0.95;
  profile.spec.count_threshold = 3;

  ProfilePoint a;
  a.interventions.sample_fraction = 0.05;
  a.interventions.resolution = 256;
  a.interventions.restricted.Add(video::ObjectClass::kPerson);
  a.err_bound = 0.123456789;
  a.err_uncorrected = 0.1;
  a.y_approx = 17.0;
  a.repaired = true;
  a.sample_size = 760;
  profile.points.push_back(a);

  ProfilePoint b;
  b.interventions.sample_fraction = 0.5;
  b.interventions.resolution = 0;
  b.interventions.contrast_scale = 0.75;
  b.err_bound = 0.02;
  b.err_uncorrected = 0.02;
  b.y_approx = 18.0;
  b.repaired = false;
  b.sample_size = 7605;
  profile.points.push_back(b);
  return profile;
}

TEST(ProfileIoTest, RoundTrip) {
  Profile original = MakeProfile();
  std::string path = testing::TempDir() + "/smk_profile_roundtrip.csv";
  ASSERT_TRUE(SaveProfile(original, path).ok());

  auto loaded = LoadProfile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->dataset_name, original.dataset_name);
  EXPECT_EQ(loaded->detector_name, original.detector_name);
  EXPECT_EQ(loaded->spec.aggregate, original.spec.aggregate);
  EXPECT_NEAR(loaded->spec.quantile_r, 0.95, 1e-9);
  EXPECT_EQ(loaded->spec.count_threshold, 3);
  ASSERT_EQ(loaded->points.size(), original.points.size());
  for (size_t i = 0; i < original.points.size(); ++i) {
    const ProfilePoint& want = original.points[i];
    const ProfilePoint& got = loaded->points[i];
    EXPECT_NEAR(got.interventions.sample_fraction, want.interventions.sample_fraction, 1e-6);
    EXPECT_EQ(got.interventions.resolution, want.interventions.resolution);
    EXPECT_EQ(got.interventions.restricted, want.interventions.restricted);
    EXPECT_NEAR(got.interventions.contrast_scale, want.interventions.contrast_scale, 1e-6);
    EXPECT_NEAR(got.err_bound, want.err_bound, 1e-8);
    EXPECT_NEAR(got.err_uncorrected, want.err_uncorrected, 1e-8);
    EXPECT_NEAR(got.y_approx, want.y_approx, 1e-8);
    EXPECT_EQ(got.repaired, want.repaired);
    EXPECT_EQ(got.sample_size, want.sample_size);
  }
  std::remove(path.c_str());
}

TEST(ProfileIoTest, LoadedProfileSupportsFind) {
  Profile original = MakeProfile();
  std::string path = testing::TempDir() + "/smk_profile_find.csv";
  ASSERT_TRUE(SaveProfile(original, path).ok());
  auto loaded = LoadProfile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->Find(original.points[1].interventions)->sample_size, 7605);
  std::remove(path.c_str());
}

TEST(ProfileIoTest, MissingFileFails) {
  EXPECT_FALSE(LoadProfile("/nonexistent/profile.csv").ok());
}

TEST(ProfileIoTest, NonProfileFileFails) {
  std::string path = testing::TempDir() + "/smk_profile_bad.csv";
  {
    std::ofstream out(path);
    out << "just,a,csv\n1,2,3\n";
  }
  EXPECT_FALSE(LoadProfile(path).ok());
  std::remove(path.c_str());
}

TEST(ProfileIoTest, MalformedRowFails) {
  Profile original = MakeProfile();
  std::string path = testing::TempDir() + "/smk_profile_malformed.csv";
  ASSERT_TRUE(SaveProfile(original, path).ok());
  {
    std::ofstream out(path, std::ios::app);
    out << "0.1,oops\n";
  }
  EXPECT_FALSE(LoadProfile(path).ok());
  std::remove(path.c_str());
}

TEST(ProfileIoTest, MalformedNumericCellFails) {
  // A junk cell must fail the load, not silently parse as zero (the old
  // atoi/atof behaviour, which turned a corrupt row into all-zero bounds).
  Profile original = MakeProfile();
  std::string path = testing::TempDir() + "/smk_profile_badcell.csv";
  ASSERT_TRUE(SaveProfile(original, path).ok());
  {
    std::ofstream out(path, std::ios::app);
    out << "0.1,320,0,1.0,junk,0.1,17.0,0,100\n";  // err_bound not a number.
  }
  EXPECT_FALSE(LoadProfile(path).ok());
  std::remove(path.c_str());
}

TEST(ProfileIoTest, NanCellFailsToLoad) {
  // "nan" parses as a double, so only validation can refuse it.
  Profile original = MakeProfile();
  std::string path = testing::TempDir() + "/smk_profile_nan.csv";
  for (const char* row : {
           "nan,320,0,1.0,0.1,0.1,17.0,0,100\n",  // Sample fraction.
           "0.1,320,0,nan,0.1,0.1,17.0,0,100\n",  // Contrast scale.
       }) {
    ASSERT_TRUE(SaveProfile(original, path).ok());
    {
      std::ofstream out(path, std::ios::app);
      out << row;
    }
    EXPECT_FALSE(LoadProfile(path).ok()) << row;
  }
  std::remove(path.c_str());
}

TEST(ProfileIoTest, MalformedHeaderValueFails) {
  Profile original = MakeProfile();
  std::string path = testing::TempDir() + "/smk_profile_badhdr.csv";
  ASSERT_TRUE(SaveProfile(original, path).ok());
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  in.close();
  // Corrupt the count_threshold header line.
  auto pos = content.find("#count_threshold=3");
  ASSERT_NE(pos, std::string::npos);
  content.replace(pos, 18, "#count_threshold=x");
  {
    std::ofstream out(path, std::ios::trunc);
    out << content;
  }
  EXPECT_FALSE(LoadProfile(path).ok());
  std::remove(path.c_str());
}

TEST(ProfileIoTest, OutOfRangeMaskOrResolutionFails) {
  Profile original = MakeProfile();
  std::string path = testing::TempDir() + "/smk_profile_range.csv";
  for (const char* row : {
           "0.1,-320,0,1.0,0.1,0.1,17.0,0,100\n",         // Negative resolution.
           "0.1,99999999999999999,0,1.0,0.1,0.1,17.0,0,100\n",  // > INT_MAX.
           "0.1,320,4096,1.0,0.1,0.1,17.0,0,100\n",       // Mask beyond classes.
       }) {
    ASSERT_TRUE(SaveProfile(original, path).ok());
    {
      std::ofstream out(path, std::ios::app);
      out << row;
    }
    EXPECT_FALSE(LoadProfile(path).ok()) << row;
  }
  std::remove(path.c_str());
}

TEST(ProfileIoTest, EmptyProfileRoundTrips) {
  Profile empty;
  // Move-assigned from std::strings, not assigned from literals: GCC 12 at
  // -O3 raises a -Wrestrict false positive on the inlined literal replace.
  empty.dataset_name = std::string("x");
  empty.detector_name = std::string("y");
  std::string path = testing::TempDir() + "/smk_profile_empty.csv";
  ASSERT_TRUE(SaveProfile(empty, path).ok());
  auto loaded = LoadProfile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->points.empty());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace core
}  // namespace smokescreen
