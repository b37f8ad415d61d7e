"""Synthetic Internet simulator.

Stands in for the measurement infrastructure the paper consumes: CAIDA
ARK traceroutes, BGP collector dumps, IXP directories, AS2ORG sibling
data, and AS relationships - all generated from one seeded topology
with exact ground truth attached.

Entry point: :func:`repro.sim.scenario.build_scenario` with a
:class:`repro.sim.scenario.ScenarioConfig`.  The package re-exports
nothing, so a caller loads only the submodules it imports.
"""
