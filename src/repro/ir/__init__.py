"""Information-retrieval substrate of the Mirror DBMS.

The Mirror paper builds content management on the *inference network
retrieval model* ("the basis of the successful IR system InQuery",
section 3) adapted to multimedia.  This package supplies everything the
``CONTREP`` Moa structure needs:

* :mod:`repro.ir.tokenize` -- tokenizer + stopword list;
* :mod:`repro.ir.porter` -- the Porter stemmer, from scratch;
* :mod:`repro.ir.stats` -- global collection statistics (the ``stats``
  query parameter of the paper's ranking queries);
* :mod:`repro.ir.beliefs` -- document/term belief estimation (``getBL``);
* :mod:`repro.ir.operators` -- InQuery-style evidence combination
  (#sum, #wsum, #and, #or, #not, #max);
* :mod:`repro.ir.network` -- assembling and evaluating inference
  networks over a document collection;
* :mod:`repro.ir.index` -- an inverted file laid out as BATs;
* :mod:`repro.ir.queries` -- parser for structured #-operator queries.
"""

from repro.ir.beliefs import BeliefParameters, belief, beliefs_array, default_belief
from repro.ir.stats import CollectionStats
from repro.ir.tokenize import STOPWORDS, analyze, analyze_many, tokenize

__all__ = [
    "tokenize",
    "analyze",
    "analyze_many",
    "STOPWORDS",
    "CollectionStats",
    "BeliefParameters",
    "belief",
    "beliefs_array",
    "default_belief",
]
