"""wikialumni: mine university-alumni relations from Wikipedia dumps,
attribute pageviews, and rank universities by alumni popularity."""

__version__ = "0.1.0"
