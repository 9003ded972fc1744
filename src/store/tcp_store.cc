#include "store/tcp_store.h"

#include <utility>

namespace fastreg::store {

tcp_store::tcp_store(store_config cfg, net::node_options nopt,
                     net::cluster_options copt)
    : proto_(std::move(cfg)),
      cluster_(proto_.config().base, proto_, nopt, copt) {}

}  // namespace fastreg::store
