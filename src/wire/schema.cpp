#include "wire/schema.hpp"

namespace qvg::wire::schema {

const std::array<std::string_view,
                 static_cast<std::size_t>(ErrorCode::kInternal) + 1>
    kErrorCodeNames = [] {
      std::array<std::string_view,
                 static_cast<std::size_t>(ErrorCode::kInternal) + 1>
          names;
      for (std::size_t c = 0; c < names.size(); ++c)
        names[c] = error_code_name(static_cast<ErrorCode>(c));
      return names;
    }();

AxisFields fields_of(const VoltageAxis& axis) {
  return {axis.start(), axis.step(), axis.count()};
}

std::string assign(VoltageAxis& out, AxisFields in) {
  // The VoltageAxis constructor's preconditions, enforced as typed errors
  // (the !(...) form also rejects NaN).
  if (!(in.step > 0.0) || in.count < 1 || in.count > (1u << 24))
    return "axis with invalid step/count";
  out = VoltageAxis(in.start, in.step, static_cast<std::size_t>(in.count));
  return {};
}

CsdFields fields_of(const Csd& csd) {
  return {csd.x_axis(), csd.y_axis(), csd.name(), csd.truth(),
          csd.grid().raw()};
}

std::string assign(Csd& out, CsdFields in) {
  if (!in.x_axis.has_value() || !in.y_axis.has_value())
    return "CSD without axes";
  if (in.pixels.size() != in.x_axis->count() * in.y_axis->count())
    return "CSD pixel count " + std::to_string(in.pixels.size()) +
           " does not match axes (" + std::to_string(in.x_axis->count()) +
           " x " + std::to_string(in.y_axis->count()) + ")";
  out = Csd(*in.x_axis, *in.y_axis);
  out.grid().raw() = std::move(in.pixels);
  if (in.truth.has_value()) out.set_truth(*in.truth);
  out.set_name(std::move(in.name));
  return {};
}

StatusFields fields_of(const Status& status) {
  return {status.code(), status.stage(), status.detail()};
}

std::string assign(Status& out, StatusFields in) {
  out = in.code == ErrorCode::kOk
            ? Status()
            : Status::failure(in.code, std::move(in.stage),
                              std::move(in.detail));
  return {};
}

}  // namespace qvg::wire::schema
