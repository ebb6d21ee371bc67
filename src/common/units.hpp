// Strong unit types for the power-capping library.
//
// Every physical quantity that crosses a module boundary is wrapped in a
// strong type so that watts cannot silently be added to joules or seconds.
// The wrappers are trivial (a single double) and compile away entirely.
#pragma once

#include <cmath>
#include <compare>
#include <cstdint>

namespace pcap {

namespace detail {

/// CRTP base providing arithmetic for a strong double wrapper.
/// `Derived` gains +, -, scalar *, scalar /, ratio /, comparisons and
/// accumulation operators while remaining a distinct type.
template <typename Derived>
class StrongDouble {
 public:
  constexpr StrongDouble() = default;
  constexpr explicit StrongDouble(double v) : value_(v) {}

  [[nodiscard]] constexpr double value() const { return value_; }

  friend constexpr Derived operator+(Derived a, Derived b) {
    return Derived{a.value_ + b.value_};
  }
  friend constexpr Derived operator-(Derived a, Derived b) {
    return Derived{a.value_ - b.value_};
  }
  friend constexpr Derived operator-(Derived a) { return Derived{-a.value_}; }
  friend constexpr Derived operator*(Derived a, double s) {
    return Derived{a.value_ * s};
  }
  friend constexpr Derived operator*(double s, Derived a) {
    return Derived{s * a.value_};
  }
  friend constexpr Derived operator/(Derived a, double s) {
    return Derived{a.value_ / s};
  }
  /// Dimensionless ratio of two like quantities.
  friend constexpr double operator/(Derived a, Derived b) {
    return a.value_ / b.value_;
  }
  friend constexpr auto operator<=>(Derived a, Derived b) {
    return a.value_ <=> b.value_;
  }
  friend constexpr bool operator==(Derived a, Derived b) {
    return a.value_ == b.value_;
  }
  constexpr Derived& operator+=(Derived b) {
    value_ += b.value_;
    return static_cast<Derived&>(*this);
  }
  constexpr Derived& operator-=(Derived b) {
    value_ -= b.value_;
    return static_cast<Derived&>(*this);
  }
  constexpr Derived& operator*=(double s) {
    value_ *= s;
    return static_cast<Derived&>(*this);
  }

 private:
  double value_ = 0.0;
};

}  // namespace detail

/// Electrical power in watts.
class Watts : public detail::StrongDouble<Watts> {
 public:
  using StrongDouble::StrongDouble;
};

/// Energy in joules.
class Joules : public detail::StrongDouble<Joules> {
 public:
  using StrongDouble::StrongDouble;
};

/// Duration or absolute simulation time in seconds.
class Seconds : public detail::StrongDouble<Seconds> {
 public:
  using StrongDouble::StrongDouble;
};

/// Clock frequency in hertz.
class Hertz : public detail::StrongDouble<Hertz> {
 public:
  using StrongDouble::StrongDouble;
  [[nodiscard]] constexpr double gigahertz() const { return value() / 1e9; }
};

/// Data size in bytes (kept as double: traffic volumes, not addresses).
class Bytes : public detail::StrongDouble<Bytes> {
 public:
  using StrongDouble::StrongDouble;
  [[nodiscard]] constexpr double megabytes() const {
    return value() / (1024.0 * 1024.0);
  }
};

/// Temperature in degrees Celsius.
class Celsius : public detail::StrongDouble<Celsius> {
 public:
  using StrongDouble::StrongDouble;
};

// -- cross-unit physics --------------------------------------------------

/// Energy = power * time.
constexpr Joules operator*(Watts p, Seconds t) {
  return Joules{p.value() * t.value()};
}
constexpr Joules operator*(Seconds t, Watts p) { return p * t; }

/// Average power = energy / time.
constexpr Watts operator/(Joules e, Seconds t) {
  return Watts{e.value() / t.value()};
}

// -- literals --------------------------------------------------------------

namespace literals {
constexpr Watts operator""_W(long double v) {
  return Watts{static_cast<double>(v)};
}
constexpr Watts operator""_W(unsigned long long v) {
  return Watts{static_cast<double>(v)};
}
constexpr Watts operator""_kW(long double v) {
  return Watts{static_cast<double>(v) * 1e3};
}
constexpr Watts operator""_kW(unsigned long long v) {
  return Watts{static_cast<double>(v) * 1e3};
}
constexpr Joules operator""_J(long double v) {
  return Joules{static_cast<double>(v)};
}
constexpr Joules operator""_J(unsigned long long v) {
  return Joules{static_cast<double>(v)};
}
constexpr Seconds operator""_s(long double v) {
  return Seconds{static_cast<double>(v)};
}
constexpr Seconds operator""_s(unsigned long long v) {
  return Seconds{static_cast<double>(v)};
}
constexpr Seconds operator""_min(unsigned long long v) {
  return Seconds{static_cast<double>(v) * 60.0};
}
constexpr Seconds operator""_h(unsigned long long v) {
  return Seconds{static_cast<double>(v) * 3600.0};
}
constexpr Hertz operator""_GHz(long double v) {
  return Hertz{static_cast<double>(v) * 1e9};
}
constexpr Hertz operator""_GHz(unsigned long long v) {
  return Hertz{static_cast<double>(v) * 1e9};
}
constexpr Hertz operator""_MHz(unsigned long long v) {
  return Hertz{static_cast<double>(v) * 1e6};
}
constexpr Bytes operator""_B(unsigned long long v) {
  return Bytes{static_cast<double>(v)};
}
constexpr Bytes operator""_MiB(unsigned long long v) {
  return Bytes{static_cast<double>(v) * 1024.0 * 1024.0};
}
constexpr Bytes operator""_GiB(unsigned long long v) {
  return Bytes{static_cast<double>(v) * 1024.0 * 1024.0 * 1024.0};
}
}  // namespace literals

}  // namespace pcap
