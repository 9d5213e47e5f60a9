#include "peerhood/plugin.hpp"

#include <cassert>

namespace ph::peerhood {

std::unique_ptr<NetworkPlugin> make_plugin(transport::Endpoint& endpoint) {
  switch (endpoint.technology()) {
    case net::Technology::bluetooth:
      return std::make_unique<NetworkPlugin>("BTPlugin", endpoint, 0);
    case net::Technology::wlan:
      return std::make_unique<NetworkPlugin>("WLANPlugin", endpoint, 1);
    case net::Technology::gprs:
      return std::make_unique<NetworkPlugin>("GPRSPlugin", endpoint, 2);
  }
  assert(false && "unknown technology");
  return nullptr;
}

}  // namespace ph::peerhood
