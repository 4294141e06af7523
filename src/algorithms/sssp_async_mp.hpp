#pragma once

/// \file algorithms/sssp_async_mp.hpp
/// \brief Fully asynchronous message-passing SSSP — the paper's §III-B
/// punchline combination: "an asynchronous execution model with
/// message-passing to communicate the active working set can be more
/// efficient [than BSP]".  No supersteps, no barriers, no all-reduce:
/// ranks process their local work queues continuously, relaxations of
/// remote vertices fly as messages the moment they happen, and global
/// termination is detected with **Safra's token algorithm** (the classic
/// distributed termination detector: a colored token circulates the ring
/// accumulating each rank's sent-minus-received message count; a white
/// token returning to the initiator with total zero proves quiescence).
///
/// This is the "Timing = Asynchronous ∧ Communication = Message Passing"
/// cell of Table I exercised *jointly* (the BSP message-passing and the
/// shared-memory async variants each exercise one axis at a time).

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <vector>

#include "algorithms/relax.hpp"
#include "algorithms/sssp.hpp"
#include "core/types.hpp"
#include "mpsim/communicator.hpp"

namespace essentials::algorithms {

/// Asynchronous message-passing SSSP over `num_ranks` mpsim ranks.
/// Vertices are owned per `owner` (default v mod P); each rank runs a
/// continuous relax-and-forward loop with no synchronization points.
template <typename G>
sssp_result<typename G::weight_type> sssp_async_message_passing(
    G const& g, typename G::vertex_type source, int num_ranks = 4,
    std::function<int(typename G::vertex_type)> owner = {}) {
  using V = typename G::vertex_type;
  using W = typename G::weight_type;
  using word = detail::vertex_value_word<V, W>;
  expects(source >= 0 && source < g.get_num_vertices(),
          "sssp_async_message_passing: source out of range");
  if (!owner)
    owner = detail::modulo_owner<V>(num_ranks);

  std::size_t const n = static_cast<std::size_t>(g.get_num_vertices());
  sssp_result<W> result;
  result.distances.assign(n, infinity_v<W>);

  constexpr int kTagWork = 1;
  constexpr int kTagToken = 2;
  constexpr int kTagStop = 3;

  mpsim::communicator::run(num_ranks, [&](mpsim::communicator& comm,
                                          int rank) {
    int const P = comm.size();
    std::vector<W> dist(n, infinity_v<W>);
    std::deque<V> work;  // owned vertices pending expansion

    // Safra state: message balance (sent - received work messages), node
    // color, and whether this rank currently holds the token.
    long long balance = 0;
    bool black = false;  // turned black on receiving a work message
    bool stop = false;

    auto const enqueue_local = [&](V v, W d) {
      // Rank-local distances are single-owner — the plain relax flavour.
      if (relax_plain(dist.data(), static_cast<std::size_t>(v), d)) {
        work.push_back(v);
        return true;
      }
      return false;
    };

    if (owner(source) == rank)
      enqueue_local(source, W{0});

    // Token payload: [color (0 = white, 1 = black), accumulated balance
    // (bit-cast from signed)].  Ring direction 0 -> 1 -> ... -> P-1 -> 0.
    auto const send_token = [&](int to, bool token_black, long long q) {
      comm.send(rank, to, kTagToken,
                {token_black ? std::uint64_t{1} : std::uint64_t{0},
                 static_cast<std::uint64_t>(q)});
    };
    // kFresh marks "rank 0 must start a round" (no completed round to
    // judge yet) — Safra's initiator may only conclude from a token that
    // traversed the whole ring.
    constexpr long long kFresh = std::numeric_limits<long long>::min();
    bool token_pending = false;  // a token waiting while we still have work
    bool token_black_in = false;
    long long token_q_in = kFresh;
    if (rank == 0)
      token_pending = true;  // rank 0 owns round initiation

    // Mailbox dispatch: work words relax owned vertices (and blacken us),
    // a token waits until we are passive, a stop ends the loop.
    auto const absorb = [&](mpsim::message_t const& msg) {
      if (msg.tag == kTagWork) {
        --balance;
        black = true;
        for (std::uint64_t const w : msg.payload)
          enqueue_local(word::vertex(w), word::value(w));
      } else if (msg.tag == kTagToken) {
        token_pending = true;
        token_black_in = msg.payload[0] != 0;
        token_q_in = static_cast<long long>(msg.payload[1]);
      } else if (msg.tag == kTagStop) {
        stop = true;
      }
    };

    while (!stop) {
      // 1. Drain local work (bounded burst, so message handling stays
      // responsive).
      int burst = 256;
      while (!work.empty() && burst-- > 0) {
        V const v = work.front();
        work.pop_front();
        W const d_v = dist[static_cast<std::size_t>(v)];
        for (auto const e : g.get_edges(v)) {
          V const u = g.get_dest_vertex(e);
          W const nd = d_v + g.get_edge_weight(e);
          int const u_rank = owner(u);
          if (u_rank == rank) {
            enqueue_local(u, nd);
          } else if (relax_plain(dist.data(), static_cast<std::size_t>(u),
                                 nd)) {
            // dist[u] caches the best value we have forwarded: suppresses
            // repeat sends without affecting correctness (the owner keeps
            // the authoritative value).
            comm.send(rank, u_rank, kTagWork, {word::pack(u, nd)});
            ++balance;
          }
        }
      }

      // 2. Absorb everything in the mailbox.
      mpsim::message_t msg;
      while (comm.try_recv(rank, -1, msg))
        absorb(msg);
      if (stop)
        break;

      // 3. Safra: handle the token only when locally passive.
      if (token_pending && work.empty()) {
        token_pending = false;
        if (rank == 0) {
          if (P == 1) {
            // Degenerate ring: passive with an empty queue IS quiescence.
            stop = true;
            break;
          }
          if (token_q_in != kFresh && !token_black_in && !black &&
              token_q_in + balance == 0) {
            // A white token completed the ring and the global message
            // balance is zero: every rank is passive and no work message
            // is in flight.  Announce termination.
            for (int dst = 1; dst < P; ++dst)
              comm.send(rank, dst, kTagStop, {});
            stop = true;
            break;
          }
          // Start a fresh white round (Safra: initiator contributes its
          // own balance only at the *judgment*, not into the token).
          send_token(1, /*token_black=*/false, 0);
          black = false;
        } else {
          // Forward: accumulate our balance, taint if we went black since
          // the last token, then whiten ourselves.
          send_token((rank + 1) % P, token_black_in || black,
                     token_q_in + balance);
          black = false;
        }
        token_black_in = false;
        token_q_in = kFresh;
      }

      // 4. Nothing to do and no token: block briefly on the mailbox so we
      // neither spin nor miss termination.
      if (work.empty() && !token_pending) {
        if (comm.recv(rank, -1, msg))
          absorb(msg);
        else
          stop = true;  // communicator shut down
      }
    }

    detail::gather_owned(comm, rank, owner, dist, result.distances);
  });

  return result;
}

}  // namespace essentials::algorithms
