#include "src/service/protocol.h"

#include <cstdio>
#include <limits>
#include <optional>

#include "src/part/engine.h"
#include "src/service/hash.h"

namespace vlsipart::service {

const char* job_state_name(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kExpired: return "expired";
  }
  return "unknown";
}

bool job_state_terminal(JobState state) {
  return state == JobState::kDone || state == JobState::kFailed ||
         state == JobState::kExpired;
}

std::string InstanceSpec::descriptor() const {
  if (!hgr_path.empty()) return "hgr:" + hgr_path;
  if (!ispd98_path.empty()) return "ispd98:" + ispd98_path;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "@%.6g#%llu", scale,
                static_cast<unsigned long long>(gen_seed));
  return "preset:" + preset + buf;
}

bool InstanceSpec::validate(std::string* error) const {
  const int sources = static_cast<int>(!preset.empty()) +
                      static_cast<int>(!hgr_path.empty()) +
                      static_cast<int>(!ispd98_path.empty());
  if (sources != 1) {
    if (error != nullptr) {
      *error =
          "instance must name exactly one of preset / hgr_path / "
          "ispd98_path";
    }
    return false;
  }
  if (!preset.empty() && !(scale > 0.0 && scale <= 16.0)) {
    if (error != nullptr) *error = "instance.scale must be in (0, 16]";
    return false;
  }
  return true;
}

namespace {

/// Reads `key` of `object`, when present, as an exact integer in
/// [min, max] into `out` (whose type holds max); an absent key leaves
/// `out` at its SubmitRequest default.
template <class T>
bool get_uint(const JsonValue& object, const char* key, std::uint64_t min,
              std::uint64_t max, T& out, std::string* error) {
  const JsonValue* v = object.find(key);
  if (v == nullptr) return true;
  const std::optional<std::uint64_t> value = v->as_uint();
  if (!value || *value < min || *value > max) {
    if (error != nullptr) {
      *error = std::string(key) + " must be an integer in [" +
               std::to_string(min) + ", " + std::to_string(max) + "]";
    }
    return false;
  }
  out = static_cast<T>(*value);
  return true;
}

constexpr std::uint64_t kMaxSeed = std::numeric_limits<std::uint64_t>::max();

}  // namespace

bool parse_submit(const JsonValue& request, SubmitRequest& out,
                  std::string* error) {
  out = SubmitRequest{};
  const JsonValue* instance = request.find("instance");
  if (instance == nullptr || !instance->is_object()) {
    if (error != nullptr) *error = "submit requires an instance object";
    return false;
  }
  if (const JsonValue* v = instance->find("preset")) {
    out.instance.preset = v->as_string();
  }
  if (const JsonValue* v = instance->find("scale")) {
    out.instance.scale = v->as_number(-1.0);
  }
  if (!get_uint(*instance, "gen_seed", 0, kMaxSeed, out.instance.gen_seed,
                error)) {
    return false;
  }
  if (const JsonValue* v = instance->find("hgr_path")) {
    out.instance.hgr_path = v->as_string();
  }
  if (const JsonValue* v = instance->find("ispd98_path")) {
    out.instance.ispd98_path = v->as_string();
  }
  if (!out.instance.validate(error)) return false;

  if (!get_uint(request, "k", 2, 64, out.k, error)) return false;
  if (!get_uint(request, "starts", 1, 4096, out.starts, error)) {
    return false;
  }
  if (!get_uint(request, "vcycles", 0, 64, out.vcycles, error)) {
    return false;
  }
  if (const JsonValue* v = request.find("tolerance")) {
    out.tolerance = v->as_number(-1.0);
  }
  if (!(out.tolerance > 0.0 && out.tolerance < 1.0)) {
    if (error != nullptr) *error = "tolerance must be in (0, 1)";
    return false;
  }
  if (const JsonValue* v = request.find("engine")) {
    out.engine = v->as_string();
  }
  if (const std::string why = engine_spec_error(out.engine, out.k);
      !why.empty()) {
    if (error != nullptr) *error = why;
    return false;
  }
  if (!get_uint(request, "population", 1, 64, out.population, error)) {
    return false;
  }
  if (!get_uint(request, "generations", 0, 256, out.generations, error)) {
    return false;
  }
  if (!get_uint(request, "seed", 0, kMaxSeed, out.seed, error)) {
    return false;
  }
  if (!get_uint(request, "deadline_ms", 0,
                static_cast<std::uint64_t>(
                    std::numeric_limits<std::int64_t>::max()),
                out.deadline_ms, error)) {
    return false;
  }
  if (const JsonValue* v = request.find("include_parts")) {
    out.include_parts = v->as_bool();
  }
  if (const JsonValue* v = request.find("use_result_cache")) {
    out.use_result_cache = v->as_bool(true);
  }
  return true;
}

JsonValue submit_to_json(const SubmitRequest& request) {
  JsonValue instance = JsonValue::object();
  if (!request.instance.preset.empty()) {
    instance.set("preset", JsonValue::string(request.instance.preset));
    instance.set("scale", JsonValue::number(request.instance.scale));
    instance.set("gen_seed",
                 JsonValue::unsigned_integer(request.instance.gen_seed));
  } else if (!request.instance.hgr_path.empty()) {
    instance.set("hgr_path", JsonValue::string(request.instance.hgr_path));
  } else {
    instance.set("ispd98_path",
                 JsonValue::string(request.instance.ispd98_path));
  }
  JsonValue out = JsonValue::object();
  out.set("op", JsonValue::string("submit"));
  out.set("instance", std::move(instance));
  out.set("k", JsonValue::integer(static_cast<std::int64_t>(request.k)));
  out.set("tolerance", JsonValue::number(request.tolerance));
  out.set("engine", JsonValue::string(request.engine));
  out.set("starts",
          JsonValue::integer(static_cast<std::int64_t>(request.starts)));
  out.set("vcycles",
          JsonValue::integer(static_cast<std::int64_t>(request.vcycles)));
  out.set("population",
          JsonValue::integer(static_cast<std::int64_t>(request.population)));
  out.set("generations",
          JsonValue::integer(static_cast<std::int64_t>(request.generations)));
  out.set("seed", JsonValue::unsigned_integer(request.seed));
  if (request.deadline_ms > 0) {
    out.set("deadline_ms", JsonValue::integer(request.deadline_ms));
  }
  if (request.include_parts) {
    out.set("include_parts", JsonValue::boolean(true));
  }
  if (!request.use_result_cache) {
    out.set("use_result_cache", JsonValue::boolean(false));
  }
  return out;
}

std::uint64_t result_cache_key(const SubmitRequest& request,
                               std::uint64_t instance_content_hash) {
  // The canonical wire body minus the members that cannot change the
  // answer: a field added to SubmitRequest (and so to submit_to_json)
  // joins the key without anyone having to remember it.
  const JsonValue wire = submit_to_json(request);
  JsonValue body = JsonValue::object();
  for (const auto& [name, value] : wire.members()) {
    if (name == "instance" || name == "include_parts" ||
        name == "deadline_ms" || name == "use_result_cache") {
      continue;
    }
    body.set(name, value);
  }
  return fnv1a64(body.dump(), fnv1a64_value(instance_content_hash));
}

JsonValue make_error(const std::string& code, const std::string& message) {
  JsonValue out = JsonValue::object();
  out.set("ok", JsonValue::boolean(false));
  out.set("error", JsonValue::string(code));
  out.set("message", JsonValue::string(message));
  return out;
}

}  // namespace vlsipart::service
