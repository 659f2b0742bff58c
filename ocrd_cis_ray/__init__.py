"""ocrd_cis_ray — a Ray-Data-native OCR extraction / post-correction engine.

A from-scratch reimplementation of the data-processing capabilities of
cisocrgroup/ocrd_cis (the reference at /root/reference), re-expressed as
idiomatic Ray Data: ``ray.data.Dataset`` pipelines of ``map_batches`` over
zero-copy Arrow batches, actor pools for stateful stages (recognizer,
n-way aligner, post-correction ranker), and explicit partitioning /
checkpoint manifests for trillion-document scale.

Data model (driver input_hint): one row per document/page,

    doc_id: string
    spans:  list<struct<kind: string, text: string,
                        media_ref: string, offset: int32>>

which flattens the reference's PAGE-XML hierarchy
(Page -> TextRegion -> TextLine -> Word -> Glyph, reading order as the
``offset`` document-order index).

Nothing in this package calls ``ray.init()`` — sessions are owned by the
caller: ``perfbench/run.py``, the test fixture, or the code that imports
``__ray_entry__``.
"""

__version__ = "0.1.0"
