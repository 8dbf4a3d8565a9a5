#pragma once
/// \file cost_fn.hpp
/// The access-cost functions f(x) of the HMM/BT models (Figures 3a/3b):
/// the paper's theorems are parameterized by f(x) = log x and f(x) = x^α.
/// "Well-behaved" cost functions (§2.2) are monotone and polynomially
/// bounded; both families qualify.

#include <cmath>
#include <cstdint>
#include <string>

#include "util/common.hpp"
#include "util/math.hpp"

namespace balsort {

class CostFn {
public:
    enum class Kind : std::uint64_t { kLog, kPower }; ///< 8 bytes: no padding

    static CostFn log() { return CostFn(Kind::kLog, 0.0); }
    static CostFn power(double alpha) {
        BS_REQUIRE(alpha > 0.0, "CostFn::power: alpha must be > 0");
        return CostFn(Kind::kPower, alpha);
    }

    Kind kind() const { return kind_; }
    double alpha() const { return alpha_; }

    /// f(x), with f(x) >= 1 for all x >= 0 (accessing even the base level
    /// costs one unit; matches the paper's max{1, .} convention).
    double operator()(double x) const {
        if (x < 1.0) return 1.0;
        if (kind_ == Kind::kLog) return paper_log(x);
        return std::max(1.0, std::pow(x, alpha_));
    }

    std::string name() const {
        if (kind_ == Kind::kLog) return "log x";
        return "x^" + format_alpha();
    }

private:
    CostFn(Kind kind, double alpha) : kind_(kind), alpha_(alpha) {}
    std::string format_alpha() const;

    Kind kind_;
    double alpha_;
};

} // namespace balsort
