"""Attacks on the distribution phase, the collusion's probe rule and its proof.

The one run of `protocol` plays the attack of `config.attack` inline, on
either register algebra, with the steps `protocol.read_probes` and
`protocol.intercept_resend`. This module holds the probe pairs' label,
which the run starts from, the rule that turns a probe's Bell outcome into
the composite middle key (`recover_composite`, which `read_probes` calls),
and the proof that the collusion leaves no trace (`collusion_failures`).

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

import itertools

from . import labels, qcore
from .qcore import BELL_LABELS, BellLabel, PauliKey

PROBE_LABEL = BellLabel(1, 1)


def recover_composite(measured: BellLabel) -> PauliKey:
    """Composite middle key from a probe pair's Bell outcome.

    The probe starts at label (1,1); middle keys shift the traveling half
    by XOR, so a measured label (p, q) means the composite is (p^1, q^1).
    """
    measured = BellLabel(*measured)
    return PauliKey(measured.x ^ 1, measured.y ^ 1)


def collusion_failures() -> list[str]:
    """Failures of the 68-case proof that the collusion leaves no trace.

    By state-vector enumeration: for every composite middle key (4 cases)
    the probe pair's Bell outcome is certain and `recover_composite`
    recovers the composite exactly. For every composite, boundary-key
    total and prepared label (64 cases) the dealer pair's readout is
    certain at the label predicted by XOR. All decoys on all hops are
    genuine, so no check has anything to fire on. Empty when it holds.
    """
    failures = []
    probe = qcore.bell_state(BELL_LABELS.index(PROBE_LABEL))
    for composite, key in enumerate(labels.KEYS):
        probs = qcore.bell_probabilities(qcore.pauli(probe, composite))
        certain = [BELL_LABELS[code] for code, p in enumerate(probs) if p > 1.0 - 1e-12]
        if len(certain) != 1:
            failures.append(f"probe outcome not certain for composite {tuple(key)}")
        elif recover_composite(certain[0]) != key:
            failures.append(f"composite {tuple(key)} not recovered from {tuple(certain[0])}")
        for boundary, prepared in itertools.product(range(4), range(4)):
            total = composite ^ boundary  # a key code XORs onto the Bell code it acts on
            probs = qcore.bell_probabilities(qcore.pauli(qcore.bell_state(prepared), total))
            if not probs[prepared ^ total] > 1.0 - 1e-12:
                failures.append(f"readout not certain for Bell code {prepared} under key {total}")
    return failures
