// Tests for geo/haversine.

#include "stburst/geo/haversine.h"

#include <gtest/gtest.h>

namespace stburst {
namespace {

TEST(Haversine, ZeroForIdenticalPoints) {
  GeoPoint p{40.0, -3.7};
  EXPECT_DOUBLE_EQ(HaversineKm(p, p), 0.0);
}

TEST(Haversine, KnownCityDistances) {
  GeoPoint london{51.5074, -0.1278};
  GeoPoint paris{48.8566, 2.3522};
  GeoPoint new_york{40.7128, -74.0060};
  GeoPoint sydney{-33.8688, 151.2093};

  EXPECT_NEAR(HaversineKm(london, paris), 344.0, 5.0);
  EXPECT_NEAR(HaversineKm(london, new_york), 5570.0, 30.0);
  EXPECT_NEAR(HaversineKm(london, sydney), 16993.0, 80.0);
}

TEST(Haversine, Symmetric) {
  GeoPoint a{12.3, 45.6}, b{-33.0, 151.0};
  EXPECT_DOUBLE_EQ(HaversineKm(a, b), HaversineKm(b, a));
}

TEST(Haversine, AntipodesIsHalfCircumference) {
  GeoPoint a{0.0, 0.0}, b{0.0, 180.0};
  EXPECT_NEAR(HaversineKm(a, b), M_PI * kEarthRadiusKm, 1.0);
}

TEST(Haversine, PoleToPole) {
  GeoPoint north{90.0, 0.0}, south{-90.0, 0.0};
  EXPECT_NEAR(HaversineKm(north, south), M_PI * kEarthRadiusKm, 1.0);
}

TEST(Haversine, TriangleInequalityOnSamples) {
  GeoPoint a{10, 10}, b{20, 40}, c{-5, 70};
  EXPECT_LE(HaversineKm(a, c), HaversineKm(a, b) + HaversineKm(b, c) + 1e-9);
}

TEST(PairwiseDistanceMatrix, SymmetricZeroDiagonal) {
  std::vector<GeoPoint> pts{{0, 0}, {10, 10}, {-20, 50}, {45, -120}};
  auto d = PairwiseDistanceMatrixKm(pts);
  ASSERT_EQ(d.size(), 16u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(d[i * 4 + i], 0.0);
    for (size_t j = 0; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(d[i * 4 + j], d[j * 4 + i]);
      if (i != j) {
        EXPECT_GT(d[i * 4 + j], 0.0);
      }
    }
  }
  EXPECT_DOUBLE_EQ(d[1], HaversineKm(pts[0], pts[1]));
}

TEST(PairwiseDistanceMatrix, EmptyInput) {
  EXPECT_TRUE(PairwiseDistanceMatrixKm({}).empty());
}

}  // namespace
}  // namespace stburst
