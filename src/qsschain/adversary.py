"""Attacks on the distribution phase, and the collusion's probe rule.

Both engines play the attack of `config.attack` inline: `labels.run` on
label codes, and `protocol.run_distribution_dense` on state vectors with
the steps `protocol.read_probes` and `protocol.intercept_resend`. This
module holds the probe pairs' label, which both engines start from, and
the rule that turns a probe's Bell outcome into the composite middle key.

* collusion: the first and last participants cooperate. Before the run,
  the first participant prepares one probe pair |Psi_11> per position and
  hands one half of each to the last participant. During the run the first
  participant encodes its key on the genuine traveling particles, relays
  them to the last participant over a private channel, and forwards its
  probe halves (with fresh, genuine decoys) into the honest chain instead.
  The middle participants unknowingly encode their keys onto the probe
  halves, so a Bell measurement of each probe pair reveals the XOR of all
  middle keys: |Psi_11> shifts to |Psi_{1^U, 1^V}>, hence the composite key
  is the measured label with both bits flipped (`recover_composite`,
  `protocol.read_probes`). The last participant then applies its own key
  composed with the recovered composite to the relayed genuine particles
  and returns them to the dealer. The dealer's pairs end up carrying
  exactly the XOR of all keys, every decoy on every hop is genuine, and
  both colluders can reconstruct the full secret from their own keys plus
  the recovered composites.

* intercept-resend: an outsider on the last hop who measures every
  in-transit particle in a uniformly random Z/X basis
  (`protocol.intercept_resend`). Projective measurement leaves the
  particle in the observed eigenstate, which is exactly what resending it
  prepares. Each decoy on that hop mismatches with probability 1/4, so d
  decoys catch her with probability 1 - (3/4)^d.
"""

from __future__ import annotations

from .qcore import BellLabel, PauliKey

PROBE_LABEL = BellLabel(1, 1)


def recover_composite(measured: BellLabel) -> PauliKey:
    """Composite middle key from a probe pair's Bell outcome.

    The probe starts at label (1,1); middle keys shift the traveling half
    by XOR, so a measured label (p, q) means the composite is (p^1, q^1).
    """
    measured = BellLabel(*measured)
    return PauliKey(measured.x ^ 1, measured.y ^ 1)
