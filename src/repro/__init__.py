"""Lusail reproduction: federated SPARQL query processing at scale.

Packages, in the order a query meets them:

- :mod:`repro.serving` -- SPARQL-protocol HTTP server, SPARQL JSON
  results, multi-tenant admission (``python -m repro.serving``).
- :mod:`repro.core` -- the Lusail engine: LADE decomposition, SAPE
  scheduling, global joins, the streaming executor, tracing.
- :mod:`repro.federation` -- endpoint registry, ASK source selection,
  probe and result caches, replica routing, deadlines, and the elastic
  request handler.
- :mod:`repro.endpoint` -- simulated endpoints, the network model and
  fault injection, the SPARQL-protocol HTTP client, metrics and errors.
- :mod:`repro.sparql` -- SPARQL subset parser / planner / evaluator /
  serializer.
- :mod:`repro.store` -- in-memory dictionary-encoded triple store.
- :mod:`repro.rdf` -- RDF terms, triples, namespaces, N-Triples I/O.

Beside the system:

- :mod:`repro.baselines` -- FedX, SPLENDID, and HiBISCuS reimplementations.
- :mod:`repro.datasets` -- LUBM / QFed / LargeRDFBench-mini / Bio2RDF-mini
  / directory generators and benchmark queries.
- :mod:`repro.bench` -- the experiment harness regenerating the paper's
  tables and figures on the virtual clock.  Wall-clock measurement lives
  outside the package, in ``ledger/``.
"""

__version__ = "1.0.0"
