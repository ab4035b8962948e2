"""Content aggregators: the eventual solution's adopters (section 3.2).

"Whenever a photo is uploaded to a content aggregator, the aggregator
checks with the associated ledger to make sure that the photo is not
revoked, and thereafter periodically rechecks the revocation status."

This package implements an IRS-supporting aggregator:

* :mod:`repro.aggregator.uploads` -- the upload pipeline: label
  agreement checks, revocation check, custodial claiming of unlabeled
  photos, derivative detection via the robust-hash database.
* :mod:`repro.aggregator.hashdb` -- "Aggregators could also keep a
  database of robust hashes of their current content and check all
  newly uploaded photos against this database."
* :mod:`repro.aggregator.recheck` -- periodic revalidation of hosted
  content, with signed freshness proofs attached to served photos.
* :mod:`repro.aggregator.aggregator` -- the site itself: hosting,
  serving, takedowns.
"""
