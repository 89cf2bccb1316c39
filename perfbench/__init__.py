"""The repository's benchmark of record (see ``perfbench/NOTES.md``)."""
