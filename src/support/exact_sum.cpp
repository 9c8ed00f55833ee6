#include "support/exact_sum.hpp"

#include <cmath>
#include <utility>

namespace adsd {

void ExactSum::add(double x) {
  if (!std::isfinite(x)) {
    special_ += x;
    return;
  }
  // Two-sum x into each partial in turn, smallest first: hi + lo is the
  // exact sum of the pair, lo stays as a partial when nonzero, and hi
  // carries on up.
  std::size_t kept = 0;
  for (double y : partials_) {
    if (std::fabs(x) < std::fabs(y)) {
      std::swap(x, y);
    }
    const double hi = x + y;
    const double lo = y - (hi - x);
    if (lo != 0.0) {
      partials_[kept++] = lo;
    }
    x = hi;
  }
  partials_.resize(kept);
  if (!std::isfinite(x)) {
    partials_.clear();
    special_ += x;
  } else if (x != 0.0) {
    partials_.push_back(x);
  }
}

double ExactSum::value() const {
  if (special_ != 0.0) {  // NaN too
    return special_;
  }
  std::size_t n = partials_.size();
  if (n == 0) {
    return 0.0;
  }
  // Add the partials from the top down until an addition rounds.
  double hi = partials_[--n];
  double lo = 0.0;
  while (n > 0) {
    const double x = hi;
    const double y = partials_[--n];
    hi = x + y;
    lo = y - (hi - x);
    if (lo != 0.0) {
      break;
    }
  }
  // If lo is half an ulp of hi, that addition was a tie rounded to even,
  // and partials below of lo's sign put the exact sum past the tie: then
  // hi + 2 lo, exact only in that case, is the nearest double.
  if (n > 0 && ((lo < 0.0 && partials_[n - 1] < 0.0) ||
                (lo > 0.0 && partials_[n - 1] > 0.0))) {
    const double y = lo * 2.0;
    const double x = hi + y;
    if (y == x - hi) {
      hi = x;
    }
  }
  return hi;
}

}  // namespace adsd
