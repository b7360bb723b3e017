"""Attacks on the distribution phase, the collusion's probe rule and its proof.

The one run of `protocol` plays the attack of `config.attack` inline, on
either register algebra, with the steps `protocol.read_probes` and
`protocol.intercept_resend`. This module holds the probe pairs' Bell code
`PROBE`, which the run starts from, the rule that turns a probe's Bell
outcome code into the composite middle-key code (`recover_composite`,
which `read_probes` calls), and the proof that the collusion leaves no
trace (`collusion_failures`). It works on the codes stated in `qcore`.

* collusion: the first and last participants cooperate. Before the run,
  the first participant prepares one probe pair |Psi_11> per position and
  hands one half of each to the last participant. During the run the first
  participant encodes its key on the genuine traveling particles, relays
  them to the last participant over a private channel, and forwards its
  probe halves (with fresh, genuine decoys) into the honest chain instead.
  The middle participants unknowingly encode their keys onto the probe
  halves, so a Bell measurement of each probe pair reveals the XOR of all
  middle keys: |Psi_11> shifts to |Psi_{1^U, 1^V}>, hence the composite key
  code is the measured Bell code XOR 3 (`recover_composite`,
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

from . import qcore

PROBE = 3  # Bell code of |Psi_11>, the state of every probe pair


def recover_composite(measured: int) -> int:
    """Composite middle-key code from a probe pair's Bell outcome code.

    The probe starts at |Psi_11>; middle keys XOR onto its Bell code, so a
    measured code c means the composite is c ^ PROBE.
    """
    return measured ^ PROBE


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
    probe = qcore.bell_state(PROBE)
    for composite in range(4):
        probs = qcore.bell_probabilities(qcore.pauli(probe, composite))
        certain = [code for code, p in enumerate(probs) if p > 1.0 - 1e-12]
        if len(certain) != 1:
            failures.append(f"probe outcome not certain for composite key {composite}")
        elif recover_composite(certain[0]) != composite:
            failures.append(f"composite key {composite} not recovered from Bell code {certain[0]}")
        for boundary, prepared in itertools.product(range(4), range(4)):
            total = composite ^ boundary  # a key code XORs onto the Bell code it acts on
            probs = qcore.bell_probabilities(qcore.pauli(qcore.bell_state(prepared), total))
            if not probs[prepared ^ total] > 1.0 - 1e-12:
                failures.append(f"readout not certain for Bell code {prepared} under key {total}")
    return failures
