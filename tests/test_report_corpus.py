"""Every command of the committed report corpus gives its recorded exit
code and its recorded stdout (`generated_at` blanked) and stderr, run
through `rk.cli.main` in process.  `tests/make_report_corpus.py`
regenerates the corpus."""

from make_report_corpus import commands, load, run_in_process


def test_corpus_lists_the_recipe_commands():
    assert [tuple(e["argv"]) for e in load()] == commands()


def test_every_corpus_report_is_unchanged():
    changed = [" ".join(e["argv"]) for e in load()
               if run_in_process(e["argv"]) != {k: e[k] for k in
                                                ("exit", "stdout", "stderr")}]
    assert changed == []
