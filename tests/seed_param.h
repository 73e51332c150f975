// A seed offset as a gtest value parameter, for suites that run one
// case over several seeds. It is a plain 4-byte struct, which gtest
// prints as its bytes ("4-byte object <01-00 00-00>"), so the suites
// that ran over the three hash families of earlier versions
// (instantiated as "AllFamilies" and "FamiliesAndK") keep their test
// ids now that there is one row-hash function.

#ifndef SANS_TESTS_SEED_PARAM_H_
#define SANS_TESTS_SEED_PARAM_H_

#include <cstdint>

namespace sans {

struct SeedParam {
  uint32_t offset;
};

/// Offsets 0, 1, 2: the base seed of each test and two more.
inline constexpr SeedParam kSeedOffsets[] = {{0}, {1}, {2}};

}  // namespace sans

#endif  // SANS_TESTS_SEED_PARAM_H_
