"""Benchmark datasets: LUBM, QFed, LargeRDFBench-mini, Bio2RDF-mini, and the
directory workload."""

from .bio2rdf import BIO2RDF_QUERIES, Bio2RdfGenerator
from .directory import DIRECTORY_QUERY, build_directory_federation
from .export import dump_federation, load_federation
from .largerdfbench import ENDPOINT_IDS, LargeRdfBenchGenerator
from .largerdfbench_queries import (
    BIG_QUERIES,
    COMPLEX_QUERIES,
    LRB_QUERIES,
    QUERY_CATEGORY,
    SIMPLE_QUERIES,
)
from .lubm import LUBM_QUERIES, LubmGenerator
from .qfed import QFED_QUERIES, QFedGenerator

__all__ = [
    "BIG_QUERIES",
    "BIO2RDF_QUERIES",
    "Bio2RdfGenerator",
    "COMPLEX_QUERIES",
    "DIRECTORY_QUERY",
    "ENDPOINT_IDS",
    "LRB_QUERIES",
    "LUBM_QUERIES",
    "LargeRdfBenchGenerator",
    "LubmGenerator",
    "QFED_QUERIES",
    "QFedGenerator",
    "QUERY_CATEGORY",
    "SIMPLE_QUERIES",
    "build_directory_federation",
    "dump_federation",
    "load_federation",
]
