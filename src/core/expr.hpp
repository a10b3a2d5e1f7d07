// jacc::expr — lazy elementwise expression templates over jacc::array
// (ROADMAP item 2; the Grid strategy, Boyle et al. 1710.09409).
//
// An expression records an elementwise computation without running it:
//
//   jacc::eval("blas.xpay", n, jacc::assign(p, jacc::ex(r) + beta * jacc::ex(p)));
//
// materializes as ONE parallel_for, and several assign statements fuse
// into a single sweep:
//
//   jacc::eval("cg.setup", n, jacc::assign(r, jacc::ex(b) - jacc::ex(s)),
//                             jacc::assign(p, jacc::ex(r)));
//
// The dot terminal reduces a product expression without materializing any
// intermediate, and eval_dot appends a fused reduction to a statement
// chain (statements run first at each index, then the dot term is read):
//
//   rr = jacc::eval_dot("cg.fused_update", n, jacc::ex(r), jacc::ex(r),
//                       jacc::assign(x, jacc::ex(x) + alpha * jacc::ex(p)),
//                       jacc::assign(r, jacc::ex(r) - alpha * jacc::ex(s)));
//
// Accounting: the fused launch carries summed flops_per_index and
// *deduplicated* bytes_per_index hints (an array read by two operands is
// charged once per direction — MODEL.md, "Fused charges"), and is marked
// hints::elementwise so a captured eval() is also a graph-fuser candidate.
// Evaluation reads/writes through array_base::flat(), i.e. the same
// tracked element references the per-element kernels use, so simulated
// cache-model charges are exact, and per-index statement order matches the
// eager sweep order — fused evaluation is bit-exact against the unfused
// kernel sequence for elementwise chains on every backend.
#pragma once

#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/array.hpp"
#include "core/fuse.hpp"
#include "core/parallel_for.hpp"
#include "core/parallel_reduce.hpp"

namespace jacc {

/// Tag base for expression nodes; the concept every operator and entry
/// point is constrained on.
struct expr_base {};

template <class E>
concept expression = std::is_base_of_v<expr_base, std::remove_cvref_t<E>>;

namespace expr_detail {

using detail::fuse_footprint;

/// A read of one array (any rank) by linear column-major index.
template <class T>
struct leaf : expr_base {
  explicit leaf(const detail::array_base<T>* array) : a(array) {}
  const detail::array_base<T>* a;

  T operator()(index_t i) const { return a->flat(i); }
  double flops() const { return 0.0; }
  void footprints(std::vector<fuse_footprint>& out) const {
    out.push_back({a->host_data(), static_cast<double>(sizeof(T)), true,
                   false});
  }
};

/// A broadcast scalar captured by value.
template <class T>
struct scalar_expr : expr_base {
  explicit scalar_expr(T value) : v(value) {}
  T v;

  T operator()(index_t) const { return v; }
  double flops() const { return 0.0; }
  void footprints(std::vector<fuse_footprint>&) const {}
};

struct add_op {
  static auto apply(auto a, auto b) { return a + b; }
};
struct sub_op {
  static auto apply(auto a, auto b) { return a - b; }
};
struct mul_op {
  static auto apply(auto a, auto b) { return a * b; }
};

template <class L, class R, class Op>
struct binary_expr : expr_base {
  binary_expr(L lhs, R rhs) : l(std::move(lhs)), r(std::move(rhs)) {}
  L l;
  R r;

  auto operator()(index_t i) const { return Op::apply(l(i), r(i)); }
  double flops() const { return l.flops() + r.flops() + 1.0; }
  void footprints(std::vector<fuse_footprint>& out) const {
    l.footprints(out);
    r.footprints(out);
  }
};

template <class E>
struct neg_expr : expr_base {
  explicit neg_expr(E inner) : e(std::move(inner)) {}
  E e;

  auto operator()(index_t i) const { return -e(i); }
  double flops() const { return e.flops() + 1.0; }
  void footprints(std::vector<fuse_footprint>& out) const {
    e.footprints(out);
  }
};

// Operators live here so ADL on any node type finds them; either side of
// +, -, * may be a plain arithmetic value (lifted to a scalar broadcast).

template <expression L, expression R>
auto operator+(L l, R r) {
  return binary_expr<L, R, add_op>(std::move(l), std::move(r));
}
template <expression L, expression R>
auto operator-(L l, R r) {
  return binary_expr<L, R, sub_op>(std::move(l), std::move(r));
}
template <expression L, expression R>
auto operator*(L l, R r) {
  return binary_expr<L, R, mul_op>(std::move(l), std::move(r));
}

template <class S, expression R>
  requires std::is_arithmetic_v<S>
auto operator+(S s, R r) {
  return scalar_expr<S>(s) + std::move(r);
}
template <expression L, class S>
  requires std::is_arithmetic_v<S>
auto operator+(L l, S s) {
  return std::move(l) + scalar_expr<S>(s);
}
template <class S, expression R>
  requires std::is_arithmetic_v<S>
auto operator-(S s, R r) {
  return scalar_expr<S>(s) - std::move(r);
}
template <expression L, class S>
  requires std::is_arithmetic_v<S>
auto operator-(L l, S s) {
  return std::move(l) - scalar_expr<S>(s);
}
template <class S, expression R>
  requires std::is_arithmetic_v<S>
auto operator*(S s, R r) {
  return scalar_expr<S>(s) * std::move(r);
}
template <expression L, class S>
  requires std::is_arithmetic_v<S>
auto operator*(L l, S s) {
  return std::move(l) * scalar_expr<S>(s);
}

template <expression E>
auto operator-(E e) {
  return neg_expr<E>(std::move(e));
}

/// One deferred store: dst[i] = (T)e(i).  The statement shape eval() runs;
/// exposes the capture-layer footprint hook so an eval() recorded into a
/// graph stays fusable with its neighbors.
template <class T, class E>
struct assign_stmt {
  const detail::array_base<T>* dst;
  E e;

  void run(index_t i) const { dst->flat(i) = static_cast<T>(e(i)); }
  double flops() const { return e.flops(); }
  void jacc_fuse_footprints(std::vector<fuse_footprint>& out) const {
    out.push_back({dst->host_data(), static_cast<double>(sizeof(T)), false,
                   true});
    e.footprints(out);
  }
};

} // namespace expr_detail

/// Wraps an array (any rank) as an expression leaf reading by linear
/// column-major index.
template <class T>
auto ex(const array<T>& a) {
  return expr_detail::leaf<T>(&a);
}
template <class T>
auto ex(const array2d<T>& a) {
  return expr_detail::leaf<T>(&a);
}
template <class T>
auto ex(const array3d<T>& a) {
  return expr_detail::leaf<T>(&a);
}

/// A deferred elementwise store into `dst`; run by eval()/eval_dot().
template <class T, expression E>
auto assign(array<T>& dst, E e) {
  return expr_detail::assign_stmt<T, E>{&dst, std::move(e)};
}
template <class T, expression E>
auto assign(array2d<T>& dst, E e) {
  return expr_detail::assign_stmt<T, E>{&dst, std::move(e)};
}
template <class T, expression E>
auto assign(array3d<T>& dst, E e) {
  return expr_detail::assign_stmt<T, E>{&dst, std::move(e)};
}

/// Runs a chain of assign statements over [0, n) as ONE parallel_for with
/// summed flops and deduplicated bytes hints.  `n` is explicit because the
/// BLAS front end routinely operates on a prefix of its arrays.
template <class... St>
void eval(std::string_view name, index_t n, const St&... stmts) {
  std::vector<detail::fuse_footprint> fps;
  (stmts.jacc_fuse_footprints(fps), ...);
  const hints h{.name = name,
                .flops_per_index = (0.0 + ... + stmts.flops()),
                .bytes_per_index = detail::fused_hint_bytes(fps),
                .elementwise = true};
  parallel_for(h, n,
               [](index_t i, const St&... ss) { (ss.run(i), ...); },
               stmts...);
}

/// Fused reduction terminal: sum over i of a(i) * b(i), without
/// materializing either operand expression.
template <expression E1, expression E2>
auto dot(std::string_view name, index_t n, const E1& a, const E2& b) {
  std::vector<detail::fuse_footprint> fps;
  a.footprints(fps);
  b.footprints(fps);
  const hints h{.name = name,
                .flops_per_index = a.flops() + b.flops() + 2.0,
                .bytes_per_index = detail::fused_hint_bytes(fps)};
  return parallel_reduce(
      h, n,
      [](index_t i, const E1& x, const E2& y) { return x(i) * y(i); }, a, b);
}

/// Statement chain + fused dot in ONE launch: at each index the statements
/// run in order, then the dot term a(i) * b(i) is read — so a dot over an
/// array a statement just updated sees the new value, exactly as running
/// the unfused sweeps back to back would.  Every backend's reduction
/// evaluates each index exactly once, which makes this legal (and
/// bit-exact: the reduce tree only sees the term values).
template <expression E1, expression E2, class... St>
auto eval_dot(std::string_view name, index_t n, const E1& a, const E2& b,
              const St&... stmts) {
  std::vector<detail::fuse_footprint> fps;
  (stmts.jacc_fuse_footprints(fps), ...);
  a.footprints(fps);
  b.footprints(fps);
  const hints h{.name = name,
                .flops_per_index =
                    (0.0 + ... + stmts.flops()) + a.flops() + b.flops() + 2.0,
                .bytes_per_index = detail::fused_hint_bytes(fps),
                .elementwise = true};
  return parallel_reduce(
      h, n,
      [](index_t i, const E1& x, const E2& y, const St&... ss) {
        (ss.run(i), ...);
        return x(i) * y(i);
      },
      a, b, stmts...);
}

} // namespace jacc
