#include "tpch/qgen.h"

#include <algorithm>

#include "common/macros.h"
#include "common/string_util.h"
#include "tpch/dbgen.h"

namespace recycledb {
namespace tpch {

namespace {

std::string RandNation(Rng* rng) { return kNationNames[rng->Uniform(0, 24)]; }
std::string RandRegion(Rng* rng) { return kRegionNames[rng->Uniform(0, 4)]; }

std::string RandBrand(Rng* rng) {
  return StrFormat("Brand#%d%d", (int)rng->Uniform(1, 5),
                   (int)rng->Uniform(1, 5));
}

std::string RandType(Rng* rng) {
  return std::string(kTypes1[rng->Uniform(0, 5)]) + " " +
         kTypes2[rng->Uniform(0, 4)] + " " + kTypes3[rng->Uniform(0, 4)];
}

int32_t FirstOfMonth(Rng* rng, int ylo, int yhi, int mhi_in_last_year = 12) {
  int y = static_cast<int>(rng->Uniform(ylo, yhi));
  int mhi = y == yhi ? mhi_in_last_year : 12;
  int m = static_cast<int>(rng->Uniform(1, mhi));
  return MakeDate(y, m, 1);
}

}  // namespace

QueryParams GenerateParams(int query, Rng* rng, double scale_factor) {
  QueryParams p;
  switch (query) {
    case 1:
      // DELTA in [60, 120] days before 1998-12-01.
      p.date1 = MakeDate(1998, 12, 1) -
                static_cast<int32_t>(rng->Uniform(60, 120));
      break;
    case 2:
      p.i1 = rng->Uniform(1, 50);                // SIZE
      p.s1 = kTypes3[rng->Uniform(0, 4)];        // TYPE suffix
      p.s2 = RandRegion(rng);                    // REGION
      break;
    case 3:
      p.s1 = kSegments[rng->Uniform(0, 4)];      // SEGMENT
      p.date1 = MakeDate(1995, 3, 1) + static_cast<int32_t>(rng->Uniform(0, 30));
      break;
    case 4:
      p.date1 = FirstOfMonth(rng, 1993, 1997, 10);
      break;
    case 5:
      p.s1 = RandRegion(rng);
      p.date1 = MakeDate(static_cast<int>(rng->Uniform(1993, 1997)), 1, 1);
      break;
    case 6:
      p.date1 = MakeDate(static_cast<int>(rng->Uniform(1993, 1997)), 1, 1);
      p.d1 = static_cast<double>(rng->Uniform(2, 9)) / 100.0;  // DISCOUNT
      p.i1 = rng->Uniform(24, 25);                             // QUANTITY
      break;
    case 7: {
      int a = static_cast<int>(rng->Uniform(0, 24));
      int b = static_cast<int>(rng->Uniform(0, 23));
      if (b >= a) ++b;
      p.s1 = kNationNames[a];
      p.s2 = kNationNames[b];
      break;
    }
    case 8: {
      int n = static_cast<int>(rng->Uniform(0, 24));
      p.s1 = kNationNames[n];
      p.s2 = kRegionNames[kNationRegion[n]];
      p.s3 = RandType(rng);
      break;
    }
    case 9:
      p.s1 = kColors[rng->Uniform(0, 91)];  // ~100-value parameter
      break;
    case 10: {
      // First of month in 1993-02 .. 1995-01 (24 values).
      int k = static_cast<int>(rng->Uniform(0, 23));
      int y = 1993 + (k + 1) / 12;
      int m = (k + 1) % 12 + 1;
      p.date1 = MakeDate(y, m, 1);
      break;
    }
    case 11:
      p.s1 = RandNation(rng);
      p.d1 = 0.0001 / scale_factor;
      break;
    case 12: {
      int a = static_cast<int>(rng->Uniform(0, 6));
      int b = static_cast<int>(rng->Uniform(0, 5));
      if (b >= a) ++b;
      p.s1 = kShipModes[a];
      p.s2 = kShipModes[b];
      p.date1 = MakeDate(static_cast<int>(rng->Uniform(1993, 1997)), 1, 1);
      break;
    }
    case 13: {
      static const char* w1[4] = {"special", "pending", "unusual", "express"};
      static const char* w2[4] = {"packages", "requests", "accounts",
                                  "deposits"};
      p.s1 = w1[rng->Uniform(0, 3)];
      p.s2 = w2[rng->Uniform(0, 3)];
      break;
    }
    case 14:
      p.date1 = FirstOfMonth(rng, 1993, 1997);
      break;
    case 15:
      p.date1 = FirstOfMonth(rng, 1993, 1997, 10);
      break;
    case 16: {
      p.s1 = RandBrand(rng);
      p.s2 = std::string(kTypes1[rng->Uniform(0, 5)]) + " " +
             kTypes2[rng->Uniform(0, 4)];
      // 8 distinct sizes in [1, 50].
      std::vector<int> sizes;
      while (sizes.size() < 8) {
        int s = static_cast<int>(rng->Uniform(1, 50));
        if (std::find(sizes.begin(), sizes.end(), s) == sizes.end()) {
          sizes.push_back(s);
        }
      }
      for (int s : sizes) p.strs.push_back(std::to_string(s));
      break;
    }
    case 17:
      p.s1 = RandBrand(rng);
      p.s2 = kContainers[rng->Uniform(0, 39)];
      break;
    case 18:
      p.i1 = rng->Uniform(312, 315);
      break;
    case 19:
      p.s1 = RandBrand(rng);
      p.s2 = RandBrand(rng);
      p.s3 = RandBrand(rng);
      p.i1 = rng->Uniform(1, 10);
      p.i2 = rng->Uniform(10, 20);
      p.i3 = rng->Uniform(20, 30);
      break;
    case 20:
      p.s1 = kColors[rng->Uniform(0, 91)];
      p.date1 = MakeDate(static_cast<int>(rng->Uniform(1993, 1997)), 1, 1);
      p.s2 = RandNation(rng);
      break;
    case 21:
      p.s1 = RandNation(rng);
      break;
    case 22: {
      // 7 distinct two-digit country codes in [10, 34].
      std::vector<int> codes;
      while (codes.size() < 7) {
        int c = static_cast<int>(rng->Uniform(10, 34));
        if (std::find(codes.begin(), codes.end(), c) == codes.end()) {
          codes.push_back(c);
        }
      }
      for (int c : codes) p.strs.push_back(std::to_string(c));
      break;
    }
    default:
      RDB_UNREACHABLE("query must be 1..22");
  }
  return p;
}

std::vector<StreamQuery> GenerateStream(int stream_id, Rng* rng,
                                        double scale_factor) {
  (void)stream_id;
  std::vector<StreamQuery> stream;
  stream.reserve(kNumQueries);
  std::vector<int> order;
  for (int q = 1; q <= kNumQueries; ++q) order.push_back(q);
  // Seeded Fisher-Yates shuffle (per-stream query ordering).
  for (int i = kNumQueries - 1; i > 0; --i) {
    int j = static_cast<int>(rng->Uniform(0, i));
    std::swap(order[i], order[j]);
  }
  for (int q : order) {
    stream.push_back({q, GenerateParams(q, rng, scale_factor)});
  }
  return stream;
}

std::vector<workload::StreamSpec> MakeStreams(int num_streams,
                                              double scale_factor,
                                              uint64_t seed) {
  std::vector<workload::StreamSpec> streams;
  streams.reserve(num_streams);
  for (int s = 0; s < num_streams; ++s) {
    Rng rng(seed + static_cast<uint64_t>(s) * 1000003ULL);
    workload::StreamSpec spec;
    for (const auto& q : GenerateStream(s, &rng, scale_factor)) {
      spec.labels.push_back("Q" + std::to_string(q.query));
      spec.plans.push_back(BuildQuery(q.query, q.params, scale_factor));
    }
    streams.push_back(std::move(spec));
  }
  return streams;
}

}  // namespace tpch
}  // namespace recycledb
