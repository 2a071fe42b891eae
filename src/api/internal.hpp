// Internal helpers shared by the api/, shard/ and serve/ implementation
// files. Not part of the public surface — do not include from examples
// or benches.
#pragma once

#include <memory>
#include <vector>

#include "api/explorer.hpp"
#include "api/status.hpp"
#include "cache/geometry.hpp"
#include "engine/campaign.hpp"
#include "engine/profile_cache.hpp"

namespace xoridx::api::internal {

/// Map the in-flight exception onto a Status: std::invalid_argument ->
/// invalid_argument, any other std::exception -> `runtime_code`,
/// non-standard exceptions -> internal.
[[nodiscard]] Status status_from_current_exception(StatusCode runtime_code);

/// The request's geometries and strategies, validated and lowered to the
/// engine's types.
struct LoweredRequest {
  std::vector<cache::CacheGeometry> geometries;
  std::vector<engine::FunctionConfig> configs;
};

/// The one request-validation path: empty-field checks, the hashed_bits
/// bound, geometry validation (including m <= n) and strategy lowering.
/// Explorer::explore and shard::ShardPlan::partition both call this, so
/// sharded and unsharded runs accept exactly the same requests with
/// exactly the same errors. Trace resolution is NOT covered — the two
/// callers need different depths (explore materializes, the plan only
/// reads metadata).
[[nodiscard]] Result<LoweredRequest> validate_and_lower(
    const ExplorationRequest& request);

/// Validate the request, lower every trace ref and resolve its metadata
/// with attribution (an eager file loads here), and construct the
/// campaign — the whole front half of Explorer::explore. `shared_profiles`
/// (optional) substitutes an externally-owned ProfileCache so concurrent
/// campaigns (the serving daemon) share profile/zeta builds. Campaign is
/// not movable (it owns synchronization state), hence the unique_ptr.
[[nodiscard]] Result<std::unique_ptr<engine::Campaign>> build_campaign(
    const ExplorationRequest& request,
    std::shared_ptr<engine::ProfileCache> shared_profiles = nullptr);

/// Map a CampaignError onto the Status model, preserving the wrapped
/// exception's class and the failing cell.
[[nodiscard]] Status status_from_campaign_error(
    const engine::CampaignError& e);

}  // namespace xoridx::api::internal
